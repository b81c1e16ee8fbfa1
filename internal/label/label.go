// Package label implements the paper's phrase labeling step (§3.1,
// Table 3): after Phase-1 vectorization, decoded static phrases are
// filtered into Safe, Error and Unknown categories using an
// expert-curated dictionary, and Safe phrases are eliminated before
// failure chains are formed.
//
// The built-in dictionary is internal/catalog; deployments on other
// systems can override individual phrases (the paper's "consultation
// with the system administrators"). Phrases absent from the dictionary
// default to Unknown — exactly the category for "may or may not be
// indicative of some anomaly".
package label

import (
	"desh/internal/catalog"
	"desh/internal/logparse"
)

// Labeler classifies static phrase keys.
type Labeler struct {
	overrides map[string]catalog.Label
	terminals map[string]bool
}

// New returns a Labeler backed by the built-in catalog.
func New() *Labeler {
	return &Labeler{
		overrides: make(map[string]catalog.Label),
		terminals: make(map[string]bool),
	}
}

// Label returns the category of a phrase key. Unknown is the default
// for keys absent from both the overrides and the catalog.
func (l *Labeler) Label(key string) catalog.Label {
	if lab, ok := l.overrides[key]; ok {
		return lab
	}
	if p, ok := catalog.Lookup(key); ok {
		return p.Label
	}
	return catalog.Unknown
}

// IsTerminal reports whether a phrase marks a node going down.
func (l *Labeler) IsTerminal(key string) bool {
	if t, ok := l.terminals[key]; ok {
		return t
	}
	p, ok := catalog.Lookup(key)
	return ok && p.Terminal
}

// Override pins a custom label for a key, shadowing the catalog.
func (l *Labeler) Override(key string, lab catalog.Label) {
	l.overrides[key] = lab
}

// OverrideTerminal pins whether a key counts as a terminal message.
func (l *Labeler) OverrideTerminal(key string, terminal bool) {
	l.terminals[key] = terminal
}

// LabelOf is Label(ev.Key), read from the catalog entry the event
// already names when there is one and no override is set; an override
// set after the parse, a runtime Extend key and a hand-built event
// (ref 0) all take the key path.
func (l *Labeler) LabelOf(ev *logparse.Event) catalog.Label {
	if ref := ev.Ref(); ref != 0 && len(l.overrides) == 0 {
		return catalog.Catalog[ref-1].Label
	}
	return l.Label(ev.Key)
}

// TerminalOf is IsTerminal(ev.Key) on the same terms as LabelOf.
func (l *Labeler) TerminalOf(ev *logparse.Event) bool {
	if ref := ev.Ref(); ref != 0 && len(l.terminals) == 0 {
		return catalog.Catalog[ref-1].Terminal
	}
	return l.IsTerminal(ev.Key)
}

// DropSafe filters an encoded event sequence down to Unknown and Error
// phrases — the paper's "Safe (S) phrases are eliminated now" step.
// Order is preserved; the input is not modified.
func (l *Labeler) DropSafe(events []logparse.EncodedEvent) []logparse.EncodedEvent {
	out := make([]logparse.EncodedEvent, 0, len(events))
	for i := range events {
		if l.LabelOf(&events[i].Event) != catalog.Safe {
			out = append(out, events[i])
		}
	}
	return out
}
