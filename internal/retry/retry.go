// Package retry implements capped exponential backoff with full
// jitter — the one retry discipline shared by every component that
// re-attempts failed work: the cluster router's per-peer forwarding and
// the TCP ingest client's reconnect loop.
//
// The schedule is the classic "full jitter" variant: retry attempt k
// (0-based) sleeps a uniformly random duration in (0, min(Base<<k,
// Max)]. Randomizing over the whole window — rather than around a
// midpoint — is what de-correlates a thundering herd of clients all
// backing off from the same failed peer.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Defaults applied by Policy methods when the corresponding field is
// zero.
const (
	DefaultBase = 10 * time.Millisecond
	DefaultMax  = time.Second
)

// Policy describes one backoff schedule. The zero value is usable:
// 10ms base, 1s cap, unbounded attempts, shared jitter source.
type Policy struct {
	// Base is the delay ceiling for the first retry (default 10ms).
	Base time.Duration
	// Max caps the exponential growth (default 1s).
	Max time.Duration
	// Attempts bounds DoCtx: after this many calls to fn the last error
	// is returned (0 = retry until the context cancels).
	Attempts int
	// MaxElapsed caps the total wall-clock budget of one DoCtx call:
	// once sleeping for the next attempt would cross it, the last error
	// is returned instead (0 = no cap). It bounds the worst case where
	// Attempts alone would let a slow endpoint plus full backoff sleeps
	// stretch one delivery far past what the caller can tolerate.
	MaxElapsed time.Duration
	// Rand overrides the jitter source with a func returning a uniform
	// value in [0, n) — the determinism seam for tests (nil = the
	// math/rand shared source).
	Rand func(n int64) int64
}

// ceiling is the un-jittered delay bound for a 0-based attempt:
// min(Base<<attempt, Max), overflow-safe.
func (p Policy) ceiling(attempt int) time.Duration {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = DefaultBase
	}
	if max <= 0 {
		max = DefaultMax
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
		if d <= 0 { // overflow
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// Delay returns the jittered sleep before retry number attempt
// (0-based): uniform over (0, ceiling(attempt)].
func (p Policy) Delay(attempt int) time.Duration {
	d := p.ceiling(attempt)
	r := p.Rand
	if r == nil {
		r = rand.Int63n
	}
	return time.Duration(r(int64(d))) + 1
}

// Wait blocks for the attempt's jittered delay and reports whether the
// full delay elapsed (false = stop closed first) — the backoff for
// done-channel lifetimes, the streamer's shutdown idiom.
func (p Policy) Wait(stop <-chan struct{}, attempt int) bool {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// DoCtx calls fn until it returns nil, sleeping the policy's backoff
// between attempts. It stops on success, after Attempts tries or once
// the next sleep would cross MaxElapsed (the last error is returned), or
// when ctx cancels (the cancellation joined with the last error). fn
// receives ctx so each attempt's I/O can be cancelled mid-flight, and a
// cancelled ctx is never handed a fresh attempt: shutdown interrupts
// both the in-flight request and the backoff sleep instead of waiting
// either out.
func (p Policy) DoCtx(ctx context.Context, fn func(context.Context) error) error {
	start := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return errors.Join(cerr, err)
		}
		if err = fn(ctx); err == nil {
			return nil
		}
		if p.Attempts > 0 && attempt+1 >= p.Attempts {
			return err
		}
		d := p.Delay(attempt)
		if p.MaxElapsed > 0 && time.Since(start)+d >= p.MaxElapsed {
			return err
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return errors.Join(ctx.Err(), err)
		}
	}
}
