package persist

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"testing"

	"desh/internal/persist/faultfs"
)

// TestWALZeroPrefixEndsSegment: a segment its process never closed ends
// in the zero tail of its reservation, and a zero length prefix is where
// its records end. On the last segment that is a torn tail: replay
// delivers exactly the appended records, RepairTail cuts the file to
// them and a reopened WAL continues the sequence. On any other segment
// it is corruption.
func TestWALZeroPrefixEndsSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		// kill leaves dir as a dead process would and returns the records
		// it appended, one string per record.
		kill    func(t *testing.T, dir string) []string
		corrupt bool
	}{
		{"killed mid-segment", func(t *testing.T, dir string) []string {
			w := unclosedWAL(t, dir)
			appendAll(t, w, []byte("alpha"), []byte("beta"), []byte("gamma"))
			return []string{"0:alpha", "1:beta", "2:gamma"}
		}, false},
		{"killed after a rotation", func(t *testing.T, dir string) []string {
			w := unclosedWAL(t, dir)
			appendAll(t, w, []byte("alpha"), []byte("beta"))
			if _, err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, []byte("gamma"))
			return []string{"0:alpha", "1:beta", "2:gamma"}
		}, false},
		{"zero tail on every platform", func(t *testing.T, dir string) []string {
			w, err := OpenWAL(faultfs.OS(), dir, 0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, []byte("alpha"), []byte("beta"))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segPath(dir, 0), 1<<20); err != nil {
				t.Fatal(err)
			}
			return []string{"0:alpha", "1:beta"}
		}, false},
		{"zero tail before a later segment", func(t *testing.T, dir string) []string {
			w := unclosedWAL(t, dir)
			appendAll(t, w, []byte("alpha"))
			if err := os.Truncate(segPath(dir, 0), 1<<20); err != nil {
				t.Fatal(err)
			}
			later, err := OpenWAL(faultfs.OS(), dir, 1, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, later, []byte("beta"))
			if err := later.Close(); err != nil {
				t.Fatal(err)
			}
			return nil
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := faultfs.OS()
			want := tc.kill(t, dir)
			if tc.corrupt {
				if _, err := ReplayWAL(fsys, dir, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("replay: %v, want ErrCorrupt", err)
				}
				return
			}
			got, stats := replayAll(t, fsys, dir, 0)
			if fmt.Sprint(got) != fmt.Sprint(want) || stats.NextSeq != uint64(len(want)) {
				t.Fatalf("replayed %v (next seq %d), want %v", got, stats.NextSeq, want)
			}
			if err := RepairTail(fsys, dir, stats); err != nil {
				t.Fatal(err)
			}
			if stats.Torn {
				st, err := os.Stat(segPath(dir, stats.TornSegBase))
				if err != nil || st.Size() != stats.TornValidBytes {
					t.Fatalf("repaired segment %v %v, want %d bytes", st, err, stats.TornValidBytes)
				}
			}
			w, err := OpenWAL(fsys, dir, stats.NextSeq, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if seq, err := w.Append([]byte("next")); err != nil || seq != stats.NextSeq {
				t.Fatalf("reopened WAL appended at %d (%v), want %d", seq, err, stats.NextSeq)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, stats = replayAll(t, fsys, dir, 0)
			want = append(want, fmt.Sprintf("%d:next", len(want)))
			if fmt.Sprint(got) != fmt.Sprint(want) || stats.Torn {
				t.Fatalf("after repair replayed %v (torn %v), want %v", got, stats.Torn, want)
			}
		})
	}
}

// unclosedWAL opens a WAL the test never closes before it inspects the
// directory — a killed process's. Cleanup releases it afterwards.
func unclosedWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(faultfs.OS(), dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWALRefusesEmptyRecord: an empty record would read as the end of
// its segment, so it is refused before anything lands, and the refusal
// is not a failed write: the WAL appends on.
func TestWALRefusesEmptyRecord(t *testing.T) {
	w, err := OpenWAL(faultfs.OS(), t.TempDir(), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Fatal("an empty record must be refused")
	}
	if _, err := w.AppendBatch([][]byte{[]byte("ok"), {}}); err == nil {
		t.Fatal("a batch holding an empty record must be refused")
	}
	if seq, err := w.Append([]byte("ok")); err != nil || seq != 0 {
		t.Fatalf("append after the refusals: seq %d, err %v; want 0, nil", seq, err)
	}
}

// TestWALReserveFailureIsSticky: a Reserve that fails, as fallocate does
// on a full disk, fails its append and every later one with the same
// error even once the disk has room again, since the WAL cannot know
// what the failure left behind; nothing panics, Close still ends the
// segment cleanly, and replay finds the records appended before.
func TestWALReserveFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS())
	w, err := OpenWAL(fault, dir, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("alpha"))
	full := errors.New("no space left on device")
	fault.FailReserve(full)
	if _, err := w.Append([]byte("beta")); !errors.Is(err, full) {
		t.Fatalf("append on a full disk: %v, want %v", err, full)
	}
	fault.FailReserve(nil)
	if _, err := w.AppendBatch([][]byte{[]byte("gamma")}); !errors.Is(err, full) {
		t.Fatalf("append after the failure: %v, want the same error", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, stats := replayAll(t, faultfs.OS(), dir, 0); fmt.Sprint(got) != "[0:alpha]" || stats.Torn {
		t.Fatalf("replayed %v (stats %+v), want [0:alpha]", got, stats)
	}
}

// walKillChild names the directory a re-executed test binary appends to
// as TestWALSurvivesSIGKILL's child.
const walKillChild = "DESH_WAL_KILL_CHILD"

func killRecord(seq uint64) []byte { return fmt.Appendf(nil, "record %d", seq) }

// TestWALSurvivesSIGKILL: a real process appends through faultfs.OS()
// at the default segment size with fsync out of reach, printing each
// sequence number once its Append has returned, and is SIGKILLed
// mid-stream. Every printed record
// replays, each sequence number once with its own payload, and the
// directory repairs and reopens where the dead process stopped.
func TestWALSurvivesSIGKILL(t *testing.T) {
	if dir := os.Getenv(walKillChild); dir != "" {
		appendUntilKilled(dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALSurvivesSIGKILL$")
	cmd.Env = append(os.Environ(), walKillChild+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const killAt = 5000
	var printed uint64
	for sc := bufio.NewScanner(out); printed < killAt && sc.Scan(); printed++ {
		if seq, err := strconv.ParseUint(sc.Text(), 10, 64); err != nil || seq != printed {
			cmd.Process.Kill()
			t.Fatalf("child printed %q as its record %d", sc.Text(), printed)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil || printed < killAt {
		t.Fatalf("child printed %d seqs and exited with %v before the kill", printed, err)
	}

	fsys := faultfs.OS()
	var next uint64
	stats, err := ReplayWAL(fsys, dir, 0, func(seq uint64, payload []byte) error {
		if seq != next || string(payload) != string(killRecord(seq)) {
			return fmt.Errorf("record %d is %q, want seq %d", seq, payload, next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next < printed || stats.NextSeq != next {
		t.Fatalf("replayed %d records (next seq %d), but the child returned from %d appends", next, stats.NextSeq, printed)
	}
	// The child dies well inside its first reservation window, so on
	// Linux its segment ends in the window's zero tail.
	if runtime.GOOS == "linux" && !stats.Torn {
		t.Fatalf("killed after %d returned appends, %d records on disk and no zero tail", printed, next)
	}
	if err := RepairTail(fsys, dir, stats); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(fsys, dir, stats.NextSeq, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(killRecord(next)); err != nil || seq != next {
		t.Fatalf("reopened WAL appended at %d (%v), want %d", seq, err, next)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stats, err := ReplayWAL(fsys, dir, 0, func(uint64, []byte) error { return nil }); err != nil || stats.Torn || stats.NextSeq != next+1 {
		t.Fatalf("after repair: stats %+v, err %v; want %d clean records", stats, err, next+1)
	}
}

// appendUntilKilled is the child's side. The bound lets a child whose
// parent died exit on its own (writing to a closed pipe ends it sooner).
func appendUntilKilled(dir string) {
	w, err := OpenWAL(faultfs.OS(), dir, 0, 1<<30, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for seq := uint64(0); seq < 1_000_000; seq++ {
		if _, err := w.Append(killRecord(seq)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(seq)
	}
	os.Exit(0)
}
