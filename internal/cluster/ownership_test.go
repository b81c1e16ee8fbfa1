package cluster

import (
	"cmp"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"desh/internal/chaos/fixture"
	"desh/internal/logparse"
	"desh/internal/persist"
	"desh/internal/stream"
)

// TestOwnershipSurvivesRestart: every path that moves ownership — a live
// handoff (its source and its import target), a crashed coordinator's
// intent resolved with commit, a dead-peer takeover, and a handoff under
// an epoch older than the source's — leaves control state that a restart
// recovers exactly, after a graceful Close and after a kill. The
// restarted source refuses events for the nodes it handed off, the
// restarted target takes them, and an Out record never lowers the epoch.
func TestOwnershipSurvivesRestart(t *testing.T) {
	lines := fixture.Corpus(t, fixture.Config(16, 8, 6, 311)).Lines
	ring := NewRing([]string{"a", "b"}, defaultVnodes)
	ra, rb := ring.Ranges("a"), ring.Ranges("b")
	full := []persist.HashRange{{}}
	// inA and inB are lines whose nodes the ring gives a and b.
	var inA, inB string
	for _, line := range lines {
		if ev, err := logparse.ParseLine(line); err != nil {
			continue
		} else if persist.RangesContain(rb, persist.NodeHash(ev.Node)) {
			inB = cmp.Or(inB, line)
		} else {
			inA = cmp.Or(inA, line)
		}
	}
	if inA == "" || inB == "" {
		t.Fatal("the corpus nodes do not hash into both members' ranges")
	}

	type pair struct{ a, b *testInstance }
	paths := []struct {
		name string
		// run moves ownership on a fresh pair and returns the members to
		// restart and the epoch a must end at.
		run func(t *testing.T, p pair) (restart []string, epochA uint64)
	}{
		{"handoff", func(t *testing.T, p pair) ([]string, uint64) {
			adopt(t, p.a, 1, full)
			adopt(t, p.b, 1, nil)
			feed(t, p.a, lines)
			if err := p.a.inst.HandoffTo(2, p.b.srv.URL, rb); err != nil {
				t.Fatal(err)
			}
			return []string{"a", "b"}, 2
		}},
		{"resolve-commit", func(t *testing.T, p pair) ([]string, uint64) {
			adopt(t, p.a, 1, full)
			adopt(t, p.b, 1, nil)
			feed(t, p.a, lines)
			// The coordinator dies between the import and the source's Out:
			// its successor resolves the intent with commit.
			st, err := p.a.inst.Streamer().BeginHandoff(2, p.b.srv.URL, rb)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.b.inst.Streamer().ImportState(2, "a", rb, st); err != nil {
				t.Fatal(err)
			}
			if err := p.a.inst.Resolve(resolveRequest{Epoch: 2, Commit: true}); err != nil {
				t.Fatal(err)
			}
			return []string{"a", "b"}, 2
		}},
		{"takeover", func(t *testing.T, p pair) ([]string, uint64) {
			adopt(t, p.a, 1, ra)
			adopt(t, p.b, 1, rb)
			feed(t, p.a, lines)
			feed(t, p.b, lines)
			stop(t, p.a, false)
			if err := p.b.inst.Takeover(takeoverRequest{Epoch: 2, Dir: p.a.dir, Ranges: ra}); err != nil {
				t.Fatal(err)
			}
			return []string{"b"}, 0
		}},
		{"stale-epoch-out", func(t *testing.T, p pair) ([]string, uint64) {
			adopt(t, p.a, 1, full)
			adopt(t, p.b, 1, nil)
			feed(t, p.a, lines)
			if err := p.a.inst.HandoffTo(2, p.b.srv.URL, rb); err != nil {
				t.Fatal(err)
			}
			// A newer push reaches a before a handoff stamped with an older
			// epoch completes: its Out must not take a back to epoch 3.
			adopt(t, p.a, 5, ra)
			moved := persist.Intersect(ra, NewRing([]string{"a", "b", "c"}, defaultVnodes).Ranges("c"))
			if err := p.a.inst.HandoffTo(3, p.b.srv.URL, moved); err != nil {
				t.Fatal(err)
			}
			return []string{"a", "b"}, 5
		}},
	}
	for _, path := range paths {
		for _, graceful := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/%s", path.name, map[bool]string{true: "close", false: "kill"}[graceful]), func(t *testing.T) {
				root := t.TempDir()
				p := pair{boot(t, "a", filepath.Join(root, "a")), boot(t, "b", filepath.Join(root, "b"))}
				restart, epochA := path.run(t, p)
				byName := map[string]*testInstance{"a": p.a, "b": p.b}
				for _, name := range restart {
					ti := byName[name]
					live := ti.inst.Streamer().Control()
					if name == "a" {
						if e, _ := live.Owned(); e != epochA {
							t.Fatalf("a's live epoch %d, want %d", e, epochA)
						}
					}
					stop(t, ti, graceful)
					byName[name] = boot(t, name, ti.dir)
					if got := byName[name].inst.Streamer().Control(); !reflect.DeepEqual(got, live) {
						t.Errorf("%s recovered control state\n%s\nwant the live one\n%s", name, describe(got), describe(live))
					}
				}
				// b owns what it imported: inB, or after the takeover inA too.
				owned := []string{inB}
				if path.name == "takeover" {
					owned = append(owned, inA)
				} else if rej, err := byName["a"].inst.IngestLines([]string{inB}); err != nil || len(rej) != 1 {
					t.Errorf("restarted source took an event for a node it handed off (rejected %v, err %v)", rej, err)
				}
				if rej, err := byName["b"].inst.IngestLines(owned); err != nil || len(rej) != 0 {
					t.Errorf("restarted target refused events for nodes it owns (rejected %v, err %v)", rej, err)
				}
				for _, name := range restart {
					stop(t, byName[name], true)
				}
			})
		}
	}
}

// boot starts one persisting member; dir is where it keeps its state.
func boot(t *testing.T, name, dir string) *testInstance {
	return newTestInstance(t, name, dir, 64)
}

// stop closes ti gracefully or kills it, then drops its server.
func stop(t *testing.T, ti *testInstance, graceful bool) {
	t.Helper()
	if graceful {
		if err := ti.inst.Streamer().Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		ti.inst.Streamer().Kill()
	}
	ti.wait()
	ti.srv.Close()
}

func adopt(t *testing.T, ti *testInstance, epoch uint64, ranges []persist.HashRange) {
	t.Helper()
	if err := ti.inst.adoptOwnership(ownershipRequest{Epoch: epoch, Ranges: ranges}); err != nil {
		t.Fatal(err)
	}
}

// feed ingests the lines ti owns; the ones it does not are refused.
func feed(t *testing.T, ti *testInstance, lines []string) {
	t.Helper()
	if _, err := ti.inst.IngestLines(lines); err != nil {
		t.Fatal(err)
	}
}

// describe prints the records a Control points at.
func describe(c stream.Control) string {
	return fmt.Sprintf("epoch %+v lease %+v view %+v imports %v handoff %+v", c.Epoch, c.Lease, c.View, c.Imports, c.Handoff)
}
