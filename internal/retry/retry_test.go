package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// maxRand drives the jitter to its ceiling, making Delay deterministic
// and equal to the un-jittered bound.
func maxRand(n int64) int64 { return n - 1 }

func TestDelayExponentialAndCapped(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Rand: maxRand}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt, w := range want {
		if got := p.Delay(attempt); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
}

func TestDelayFullJitterRange(t *testing.T) {
	p := Policy{Base: 64 * time.Millisecond, Max: time.Second}
	low, high := false, false
	for i := 0; i < 2000; i++ {
		d := p.Delay(0)
		if d <= 0 || d > 64*time.Millisecond {
			t.Fatalf("Delay(0) = %v outside (0, 64ms]", d)
		}
		if d <= 16*time.Millisecond {
			low = true
		}
		if d > 48*time.Millisecond {
			high = true
		}
	}
	if !low || !high {
		t.Fatalf("2000 samples never spanned the jitter window (low=%v high=%v): not full jitter", low, high)
	}
}

func TestDelayZeroValuePolicy(t *testing.T) {
	var p Policy
	p.Rand = maxRand
	if got := p.Delay(0); got != DefaultBase {
		t.Fatalf("zero-value Delay(0) = %v, want %v", got, DefaultBase)
	}
	if got := p.Delay(1000); got != DefaultMax {
		t.Fatalf("zero-value Delay(1000) = %v, want cap %v (overflow-safe)", got, DefaultMax)
	}
}

// A first attempt that succeeds returns at once: no backoff is slept,
// however long the policy's would be.
func TestDoStopsOnSuccess(t *testing.T) {
	calls := 0
	p := Policy{Base: time.Hour, Max: time.Hour, Rand: maxRand}
	start := time.Now()
	err := p.DoCtx(context.Background(), func(context.Context) error { calls++; return nil })
	if err != nil || calls != 1 {
		t.Fatalf("DoCtx = %v after %d calls, want nil after 1", err, calls)
	}
	if time.Since(start) > time.Second {
		t.Fatal("DoCtx slept after a successful attempt")
	}
}

// The attempt bound is checked before sleeping: the last allowed
// failure returns its error without waiting out a backoff.
func TestDoBoundedAttempts(t *testing.T) {
	sentinel := errors.New("still down")
	calls := 0
	p := Policy{Base: time.Hour, Max: time.Hour, Attempts: 1, Rand: maxRand}
	start := time.Now()
	err := p.DoCtx(context.Background(), func(context.Context) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("DoCtx = %v after %d calls, want sentinel after exactly 1", err, calls)
	}
	if time.Since(start) > time.Second {
		t.Fatal("DoCtx slept after its last allowed attempt")
	}
}

func TestDoContextCancelDuringBackoff(t *testing.T) {
	sentinel := errors.New("down")
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Base: time.Hour, Max: time.Hour, Rand: maxRand}
	done := make(chan error, 1)
	go func() {
		done <- p.DoCtx(ctx, func(context.Context) error { return sentinel })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DoCtx = %v, want context.Canceled in chain", err)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("DoCtx = %v, want last fn error joined in", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoCtx did not return after cancellation")
	}
}

func TestDoCtxStopsOnSuccessAndBoundedAttempts(t *testing.T) {
	calls := 0
	p := Policy{Base: time.Microsecond, Max: time.Microsecond}
	err := p.DoCtx(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("DoCtx = %v after %d calls, want nil after 3", err, calls)
	}
	sentinel := errors.New("still down")
	calls = 0
	p.Attempts = 4
	err = p.DoCtx(context.Background(), func(context.Context) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) || calls != 4 {
		t.Fatalf("DoCtx = %v after %d calls, want sentinel after exactly 4", err, calls)
	}
}

func TestDoCtxNeverStartsAnAttemptAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	p := Policy{Base: time.Microsecond, Max: time.Microsecond}
	err := p.DoCtx(ctx, func(context.Context) error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("DoCtx = %v after %d calls, want context.Canceled after 0", err, calls)
	}
}

func TestDoCtxPassesContextToAttempts(t *testing.T) {
	// The attempt's I/O must be cancellable mid-flight: fn blocks on the
	// ctx it was handed, and an external cancel releases it.
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Base: time.Hour, Max: time.Hour, Rand: maxRand}
	done := make(chan error, 1)
	go func() {
		done <- p.DoCtx(ctx, func(actx context.Context) error {
			<-actx.Done()
			return actx.Err()
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DoCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoCtx did not return after cancelling the attempt's context")
	}
}

func TestDoCtxMaxElapsedCapsTheBudget(t *testing.T) {
	sentinel := errors.New("down")
	// Every retry sleep is a deterministic 50ms; a 60ms budget allows
	// exactly one sleep (attempt 1's would cross the cap).
	p := Policy{Base: 50 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 60 * time.Millisecond, Rand: maxRand}
	calls := 0
	start := time.Now()
	err := p.DoCtx(context.Background(), func(context.Context) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("DoCtx = %v, want sentinel", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DoCtx ran %v, MaxElapsed cap did not bite", elapsed)
	}
	if calls < 1 || calls > 3 {
		t.Fatalf("DoCtx made %d attempts under a 60ms budget of 50ms sleeps, want 1-3", calls)
	}
}

func TestWaitStopChannel(t *testing.T) {
	p := Policy{Base: time.Hour, Max: time.Hour, Rand: maxRand}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if p.Wait(stop, 0) {
		t.Fatal("Wait = true with stop already closed")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Wait blocked despite closed stop channel")
	}
	fast := Policy{Base: time.Millisecond, Max: time.Millisecond}
	if !fast.Wait(make(chan struct{}), 0) {
		t.Fatal("Wait = false with open stop channel")
	}
}
