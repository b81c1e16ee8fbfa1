package label

import (
	"testing"

	"desh/internal/catalog"
	"desh/internal/logparse"
)

func TestLabelFromCatalog(t *testing.T) {
	l := New()
	if got := l.Label("Setting flag"); got != catalog.Safe {
		t.Fatalf("Setting flag labeled %v", got)
	}
	if got := l.Label("DVS: Verify Filesystem *"); got != catalog.Unknown {
		t.Fatalf("DVS labeled %v", got)
	}
	if got := l.Label("Call Trace: *"); got != catalog.Error {
		t.Fatalf("Call Trace labeled %v", got)
	}
}

func TestUnseenDefaultsToUnknown(t *testing.T) {
	l := New()
	if got := l.Label("brand new mystery phrase"); got != catalog.Unknown {
		t.Fatalf("unseen phrase labeled %v, want Unknown", got)
	}
}

func TestOverrideShadowsCatalog(t *testing.T) {
	l := New()
	l.Override("Setting flag", catalog.Error)
	if got := l.Label("Setting flag"); got != catalog.Error {
		t.Fatalf("override ignored: %v", got)
	}
}

func TestIsTerminal(t *testing.T) {
	l := New()
	if !l.IsTerminal("cb_node_unavailable *") {
		t.Fatal("cb_node_unavailable must be terminal")
	}
	if l.IsTerminal("Setting flag") {
		t.Fatal("Setting flag must not be terminal")
	}
	if l.IsTerminal("unheard of phrase") {
		t.Fatal("unknown phrases must not be terminal by default")
	}
}

func TestOverrideTerminal(t *testing.T) {
	l := New()
	l.OverrideTerminal("custom node dead marker", true)
	if !l.IsTerminal("custom node dead marker") {
		t.Fatal("terminal override ignored")
	}
	l.OverrideTerminal("cb_node_unavailable *", false)
	if l.IsTerminal("cb_node_unavailable *") {
		t.Fatal("terminal un-override ignored")
	}
}

func TestDropSafe(t *testing.T) {
	l := New()
	events := []logparse.EncodedEvent{
		{Event: logparse.Event{Key: "Setting flag"}, ID: 0},
		{Event: logparse.Event{Key: "DVS: Verify Filesystem *"}, ID: 1},
		{Event: logparse.Event{Key: "WaitForBoot"}, ID: 2},
		{Event: logparse.Event{Key: "Call Trace: *"}, ID: 3},
	}
	out := l.DropSafe(events)
	if len(out) != 2 {
		t.Fatalf("kept %d events", len(out))
	}
	if out[0].ID != 1 || out[1].ID != 3 {
		t.Fatalf("wrong events kept: %v", out)
	}
	if len(events) != 4 {
		t.Fatal("input must not be modified")
	}
}

func TestCounts(t *testing.T) {
	l := New()
	events := []logparse.EncodedEvent{
		{Event: logparse.Event{Key: "Setting flag"}},
		{Event: logparse.Event{Key: "Setting flag"}},
		{Event: logparse.Event{Key: "DVS: Verify Filesystem *"}},
		{Event: logparse.Event{Key: "Call Trace: *"}},
	}
	c := make(map[catalog.Label]int)
	for _, ev := range events {
		c[l.LabelOf(&ev.Event)]++
	}
	if c[catalog.Safe] != 2 || c[catalog.Unknown] != 1 || c[catalog.Error] != 1 {
		t.Fatalf("counts %v", c)
	}
}

// Every catalog phrase must be labeled consistently with its entry —
// guards against the labeler and catalog drifting apart.
func TestLabelerAgreesWithCatalog(t *testing.T) {
	l := New()
	for _, p := range catalog.Catalog {
		if got := l.Label(p.Key); got != p.Label {
			t.Errorf("%q: labeler says %v, catalog %v", p.Key, got, p.Label)
		}
		if got := l.IsTerminal(p.Key); got != p.Terminal {
			t.Errorf("%q: labeler terminal %v, catalog %v", p.Key, got, p.Terminal)
		}
	}
}
