package cluster

import (
	"fmt"
	"testing"
	"time"

	"desh/internal/persist"
	"desh/internal/stream"
)

// pureFleet is the control plane with no streamer, no HTTP and no
// goroutine: each instance is its stream.Control, folded by Apply from
// the records the instance-side rules return, each router is its
// installed view and the fencing generations its lease replies carried,
// and the clock is a variable.
type pureFleet struct {
	t       *testing.T
	now     time.Time
	ttl     time.Duration
	members []persist.ViewMember
	ctl     map[string]*stream.Control
	// polls is, per instance, when each router last polled its lease.
	polls map[string]map[string]time.Time
	views map[string]persist.ViewRecord
	gens  map[string]map[string]uint64
}

func newPureFleet(t *testing.T, routers []string, names ...string) *pureFleet {
	f := &pureFleet{t: t, now: time.Unix(1_700_000_000, 0), ttl: 300 * time.Millisecond,
		ctl: map[string]*stream.Control{}, polls: map[string]map[string]time.Time{},
		views: map[string]persist.ViewRecord{}, gens: map[string]map[string]uint64{}}
	for _, name := range names {
		f.members = append(f.members, persist.ViewMember{Name: name, URL: "http://" + name, Dir: "/state/" + name, State: persist.StateIn})
		f.ctl[name], f.polls[name] = &stream.Control{}, map[string]time.Time{}
	}
	for _, r := range routers {
		f.views[r], f.gens[r] = persist.ViewRecord{Epoch: 1, Members: f.members}, map[string]uint64{}
	}
	return f
}

// apply folds one control record into an instance, and after every
// record that moves ownership or freezes it checks the fleet.
func (f *pureFleet) apply(name string, rec []byte, err error) {
	f.t.Helper()
	if err != nil {
		f.t.Fatalf("%s refused a control record: %v", name, err)
	}
	if rec == nil {
		return
	}
	if err := f.ctl[name].Apply(rec); err != nil {
		f.t.Fatal(err)
	}
	if rec[0] != persist.RecLease && rec[0] != persist.RecView {
		f.partition()
	}
}

// partition checks that, once every instance owns something explicit,
// each of 4,096 probe hashes has at most one owner that admits it and
// none has no owner unless a handoff has it frozen.
func (f *pureFleet) partition() {
	f.t.Helper()
	for _, c := range f.ctl {
		if c.Epoch == nil {
			return // standalone instances own the whole circle until the first push
		}
	}
	for probe := 0; probe < 4096; probe++ {
		h := uint32(probe) * 1048573
		var owners []string
		frozen := false
		for name, c := range f.ctl {
			held := c.Handoff != nil && persist.RangesContain(c.Handoff.Ranges, h)
			frozen = frozen || held
			if persist.RangesContain(c.Epoch.Ranges, h) && !held {
				owners = append(owners, name)
			}
		}
		if len(owners) > 1 || len(owners) == 0 && !frozen {
			f.t.Fatalf("hash %#x has owners %v (frozen anywhere: %v)", h, owners, frozen)
		}
	}
}

// elect runs one lease round of router r at the current time, as
// electOnce does, and reports whether r coordinates after it.
func (f *pureFleet) elect(r string) bool {
	f.t.Helper()
	var replies []leaseReply
	for _, m := range f.views[r].Members {
		f.polls[m.Name][r] = f.now
		lowest := lowestCandidate(f.polls[m.Name], f.now, f.ttl)
		rec, _, rep := decideLease(*f.ctl[m.Name], leaseRequest{Name: r, TTLMillis: f.ttl.Milliseconds()}, lowest, f.now)
		f.apply(m.Name, rec, nil)
		f.gens[r][m.Name] = max(f.gens[r][m.Name], rep.Gen)
		replies = append(replies, rep)
	}
	_, coordinator, adopt := decideElection(f.views[r], replies)
	if adopt != nil && adopt.Epoch > f.views[r].Epoch {
		f.views[r] = adopt.Clone()
	}
	return coordinator
}

// survey is what Router.survey fetches: every member's status and,
// for a pending intent, its target's imported-set.
func (f *pureFleet) survey(view persist.ViewRecord) (map[string]statusReply, map[string]bool) {
	statuses, imported := map[string]statusReply{}, map[string]bool{}
	for _, m := range view.Members {
		st := statusOf(m.Name, *f.ctl[m.Name])
		statuses[m.Name] = st
		if ph := st.PendingHandoff; ph != nil {
			for _, target := range f.members {
				if target.URL == ph.Target {
					imported[m.Name] = f.ctl[target.Name].Imports[stream.ImportKey{Epoch: ph.Epoch, Source: m.Name}]
				}
			}
		}
	}
	return statuses, imported
}

// publish installs v on members as router r's publish posts it.
func (f *pureFleet) publish(r string, v persist.ViewRecord, members []persist.ViewMember) {
	f.t.Helper()
	ring := NewRing(v.RingMembers(), 0)
	for _, m := range members {
		gen := f.gens[r][m.Name]
		rec, err := decideView(*f.ctl[m.Name], viewRequest{Gen: gen, View: v})
		f.apply(m.Name, rec, err)
		if m.InRing() {
			rec, err := adoptEpoch(*f.ctl[m.Name], ownershipRequest{Gen: gen, Epoch: v.Epoch, Ranges: ring.Ranges(m.Name)})
			f.apply(m.Name, rec, err)
		}
	}
}

// begin journals a move's intent on its source, as HandoffTo's first
// step does once the fence lets router r's post through.
func (f *pureFleet) begin(r string, mv move) {
	f.t.Helper()
	if err := fenced(*f.ctl[mv.from.Name], f.gens[r][mv.from.Name]); err != nil {
		f.t.Fatal(err)
	}
	f.apply(mv.from.Name, persist.EncodeHandoff(persist.RecHandoffBegin, persist.HandoffRecord{Epoch: mv.epoch, Peer: mv.to.URL, Ranges: mv.ranges}), nil)
}

// land journals a move's import on its target.
func (f *pureFleet) land(mv move) {
	f.t.Helper()
	f.apply(mv.to.Name, persist.EncodeHandoff(persist.RecHandoffIn, persist.HandoffRecord{Epoch: mv.epoch, Peer: mv.from.Name, Ranges: mv.ranges}), nil)
}

// TestPureDrainFailover runs the control plane end to end on the pure
// decisions alone: r0 wins the election over three instances and heals
// them, starts draining i1 (the intent view, then a handoff Begin on i1)
// and dies — after the target imported the handoff, or before. On the
// fake clock r0's lease and candidacy expire and r1 is elected; its
// converge pass finds i1's pending intent and asks the target's imported
// set, decideResolve commits or aborts it accordingly, and the next pass
// resumes the drain and commits the view without i1. Ownership
// partitions the probe hashes after every record that moves it.
func TestPureDrainFailover(t *testing.T) {
	for _, imported := range []bool{true, false} {
		t.Run(fmt.Sprintf("imported=%v", imported), func(t *testing.T) {
			f := newPureFleet(t, []string{"r0", "r1"}, "i0", "i1", "i2")
			healthy := func(string) bool { return true }
			if !f.elect("r0") || f.elect("r1") {
				t.Fatal("r0 must win the first election, and r1 must not")
			}
			view := f.views["r0"]
			statuses, verdicts := f.survey(view)
			resolve, drain, heal := decideConverge(view, statuses, verdicts)
			if len(resolve) != 0 || drain != "" || len(heal) != 3 {
				t.Fatalf("boot converge: resolve %v, drain %q, heal %v; want the three members healed", resolve, drain, heal)
			}
			f.publish("r0", view, heal)

			// r0 drains i1: the intent view goes out, then the first move
			// begins on i1 and r0 dies there.
			p, err := planChange(view, RebalanceRequest{Action: "drain", Name: "i1"}, statusOf("i1", *f.ctl["i1"]), healthy)
			if err != nil {
				t.Fatal(err)
			}
			if p.intent != nil {
				f.views["r0"] = *p.intent
				f.publish("r0", *p.intent, p.intent.Members)
			}
			if len(p.moves) == 0 {
				t.Fatal("the drain plan moves nothing")
			}
			first := p.moves[0]
			f.begin("r0", first)
			if imported {
				f.land(first)
			}

			// r0 is gone: r1 polls every TTL/3 and wins once r0's lease has
			// run out and its candidacy has aged out.
			died := f.now
			for !f.elect("r1") {
				if f.now = f.now.Add(f.ttl / 3); f.now.Sub(died) > 4*f.ttl {
					t.Fatal("r1 never won the election")
				}
			}
			if f.now.Sub(died) <= 3*f.ttl {
				t.Fatalf("r1 won %v after r0's last poll, while r0 was still a live candidate", f.now.Sub(died))
			}
			view = f.views["r1"]
			if m, _ := view.Member("i1"); m.State != persist.StateDraining {
				t.Fatalf("r1 adopted view %+v, want i1 draining in it", view)
			}

			// First pass: only the pending intent, settled by the target's
			// imported-set.
			statuses, verdicts = f.survey(view)
			resolve, drain, heal = decideConverge(view, statuses, verdicts)
			if len(resolve) != 1 || resolve[0].member.Name != "i1" || drain != "" || len(heal) != 0 {
				t.Fatalf("r1's first converge: resolve %v, drain %q, heal %v; want i1's intent only", resolve, drain, heal)
			}
			req := resolve[0].req
			req.Gen = f.gens["r1"]["i1"]
			h, err := decideResolve(*f.ctl["i1"], req)
			if err != nil {
				t.Fatal(err)
			}
			if req.Commit != imported {
				t.Fatalf("resolution commit=%v, but the target imported=%v", req.Commit, imported)
			}
			typ := persist.RecHandoffAbort
			if req.Commit {
				typ = persist.RecHandoffOut
			}
			f.apply("i1", persist.EncodeHandoff(typ, h), nil)

			// Second pass: the drain resumes from i1's journaled ownership
			// and commits the view without it.
			statuses, verdicts = f.survey(view)
			if resolve, drain, heal = decideConverge(view, statuses, verdicts); drain != "i1" {
				t.Fatalf("r1's second converge: resolve %v, drain %q, heal %v; want the drain of i1 resumed", resolve, drain, heal)
			}
			p, err = planChange(view, RebalanceRequest{Action: "drain", Name: "i1"}, statuses["i1"], healthy)
			if err != nil {
				t.Fatal(err)
			}
			for _, mv := range p.moves {
				f.begin("r1", mv)
				f.land(mv)
				f.apply(mv.from.Name, persist.EncodeHandoff(persist.RecHandoffOut, *f.ctl[mv.from.Name].Handoff), nil)
			}
			rec, err := adoptEpoch(*f.ctl["i1"], ownershipRequest{Gen: f.gens["r1"]["i1"], Epoch: p.next.Epoch})
			f.apply("i1", rec, err)
			f.views["r1"] = p.next
			f.publish("r1", p.next, p.next.Members)

			if _, still := p.next.Member("i1"); still || p.next.Epoch != 3 {
				t.Fatalf("drain committed view %+v, want epoch 3 without i1", p.next)
			}
			if _, ranges := f.ctl["i1"].Owned(); len(ranges) != 0 {
				t.Fatalf("drained i1 still owns %v", ranges)
			}
			delete(f.ctl, "i1")
			f.partition()
			for name, c := range f.ctl {
				if c.Handoff != nil || fenced(*c, f.gens["r0"][name]) == nil {
					t.Fatalf("%s: handoff %+v pending, or r0's generation %d still passes the fence", name, c.Handoff, f.gens["r0"][name])
				}
			}
			statuses, verdicts = f.survey(p.next)
			if resolve, drain, heal = decideConverge(p.next, statuses, verdicts); len(resolve)+len(heal) != 0 || drain != "" {
				t.Fatalf("converged fleet: resolve %v, drain %q, heal %v; want nothing to do", resolve, drain, heal)
			}
		})
	}
}
