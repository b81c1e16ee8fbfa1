package catalog

import (
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// maskOracle is the strings.Fields / strings.Join masker Mask replaced,
// kept as the reference the single-scan version is fuzzed against.
func maskOracle(message string) string {
	fields := strings.Fields(message)
	out := make([]string, 0, len(fields))
	prevDynamic := false
	for _, tok := range fields {
		if strings.ContainsAny(tok, "0123456789*") {
			if !prevDynamic {
				out = append(out, "*")
			}
			prevDynamic = true
			continue
		}
		out = append(out, tok)
		prevDynamic = false
	}
	return strings.Join(out, " ")
}

// maskSeeds are the messages of logparse's FuzzParseLine corpus plus the
// shapes the single scan could get wrong: non-ASCII separators, a lone
// wildcard, all-dynamic and empty messages, invalid UTF-8, and a token
// longer than Mask's stack scratch.
var maskSeeds = []string{
	"DVS: mount point established for pid=3468",
	"Lustre: 62345 connected to pid=63531",
	"Lustre: recovery complete for target 10.103.168.68",
	"Machine Check Exception: 4 Bank 5: b200000000070f0f",
	"found critical event: kernel panic - not syncing\r",
	"fraction-free timestamp",
	"",
	" ",
	"\t \n",
	"*",
	"* *",
	"1 2 3",
	"a*b c",
	"tab\tand\nnewline inside",
	"\x00weird n\xffon-utf8 \xf0\x28\x8c\x28",
	"nextline\u0085a1b",
	"no\u00a0break 7\u00a0up",
	"em\u2003space x\u20039",
	"ideographic\u3000space\u30004",
	"\u3000lead and trail\u0085",
	"\xc2 truncated rune then 5\xc2",
	strings.Repeat("x", 300) + " tail",
	strings.Repeat("x", 300) + "7 tail " + strings.Repeat("y", 300),
}

// FuzzMaskParity holds the single-scan Mask to the Fields/Join oracle on
// arbitrary bytes: same key for every input, ASCII or not.
func FuzzMaskParity(f *testing.F) {
	for _, s := range maskSeeds {
		f.Add(s)
	}
	for _, p := range Catalog {
		f.Add(p.Template)
	}
	f.Fuzz(func(t *testing.T, message string) {
		if got, want := Mask(message), maskOracle(message); got != want {
			t.Fatalf("Mask(%q) = %q, oracle %q", message, got, want)
		}
	})
}

// fragments are one rendering of each of logsim's six dynamic fragment
// kinds (hex word, decimal id, composite error code, address, pid=,
// zero-padded sequence number); logsim imports this package, so they
// are spelled out here.
var fragments = []string{"0x1f2e3d", "62345", "[4411]:0x1f", "10.103.168.68", "pid=4411", "seq00012345"}

// recogniserSeeds are every template rendered with each fragment kind,
// with a digit-free word in its slots, and with each one of its spaces
// turned into a tab or a U+00A0, and every key; plus the near misses
// the recogniser must decline or reject: a token glued to a digit, a
// dynamic token with a byte >= 0x80, doubled, leading and trailing
// spaces, a key cut one token short or with one token extra, and a
// trailing dynamic run.
func recogniserSeeds() []string {
	seeds := []string{
		"Setting\tflag", "Setting\u00a0flag", "Setting flag\t", "WaitForBoot7", "WaitForBoot 7",
		"Slurmd Stopped on node\t12", "cpu 7\tapic_timer_irqs", "cpu 7\u00a0apic_timer_irqs",
		"cpu 4\xc3\xa9 apic_timer_irqs", "cpu \xff7 apic_timer_irqs", "cpu 0x1\u00a0apic_timer_irqs",
		"Setting  flag", " Setting flag", "Setting flag ", "Setting", "Setting flag now",
		"Slurmd Stopped on node 12 0x3 pid=7", "Slurmd Stopped on node 12 0x3 pid=7 ",
		"Slurmd Stopped on node 12 0x3 down", "Slurmd Stopped on node", "Slurmd Stopped on node ",
		"Lustre: 1 2 connected to 3 4", "Lustre: 1 connected  to 3", "Lustre: connected to 3",
		"cb_node_unavailable", "cb_node_unavailable *", "* * *", "0x1 Correctable AER_BAD_TLP Error",
	}
	for _, p := range Catalog {
		for _, frag := range append(fragments, "word") {
			seeds = append(seeds, strings.ReplaceAll(p.Template, "*", frag))
		}
		rendered := strings.ReplaceAll(p.Template, "*", "62345")
		for i := range rendered {
			if rendered[i] == ' ' {
				seeds = append(seeds, rendered[:i]+"\t"+rendered[i+1:], rendered[:i]+"\u00a0"+rendered[i+1:])
			}
		}
		seeds = append(seeds, p.Key)
	}
	return seeds
}

// singleSpacedASCII is the form the recogniser may accept: ASCII, no
// whitespace but single interior ' ' separators.
func singleSpacedASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf || strings.IndexByte("\t\n\v\f\r", s[i]) >= 0 {
			return false
		}
	}
	return s != "" && s[0] != ' ' && s[len(s)-1] != ' ' && !strings.Contains(s, "  ")
}

// FuzzMaskRefParity holds MaskRef, recogniser first, to the masker
// alone: the same key and Ref for every input, a hit's key the
// catalog's own string, and a hit only on a single-spaced ASCII
// message — everything else is the masker's to decide.
func FuzzMaskRefParity(f *testing.F) {
	for _, s := range recogniserSeeds() {
		f.Add(s)
	}
	for _, s := range maskSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, message string) {
		key, ref := MaskRef(message)
		if wantKey, wantRef := maskRef(message); key != wantKey || ref != wantRef {
			t.Fatalf("MaskRef(%q) = %q, %d; masker %q, %d", message, key, ref, wantKey, wantRef)
		}
		if ref != 0 && unsafe.StringData(key) != unsafe.StringData(Catalog[ref-1].Key) {
			t.Fatalf("MaskRef(%q) returned a copy of the catalog key", message)
		}
		if recognise(message) != 0 && !singleSpacedASCII(message) {
			t.Fatalf("recogniser accepted %q, which is not single-spaced ASCII", message)
		}
	})
}

// The recogniser names every template rendered with every fragment
// kind, so the masker is the fallback, not the path: a recogniser that
// declined everything would pass FuzzMaskRefParity.
func TestRecogniserNamesRenderedTemplates(t *testing.T) {
	for i, p := range Catalog {
		for _, frag := range fragments {
			msg := strings.ReplaceAll(p.Template, "*", frag)
			if got := recognise(msg); got != Ref(i+1) {
				t.Errorf("recognise(%q) = %d, want %d", msg, got, i+1)
			}
		}
		if got := recognise(p.Key); got != Ref(i+1) {
			t.Errorf("recognise(key %q) = %d, want %d", p.Key, got, i+1)
		}
	}
}

// A known phrase comes back as the catalog's own Key string — the same
// bytes, not a copy — and costs no allocation; an unseen phrase costs
// exactly its key.
func TestMaskInternsCatalogKeys(t *testing.T) {
	for i, p := range Catalog {
		rendered := strings.ReplaceAll(p.Template, "*", "pid=4411 0x1f")
		got := Mask(rendered)
		if got != p.Key {
			t.Fatalf("Mask(%q) = %q, want %q", rendered, got, p.Key)
		}
		if unsafe.StringData(got) != unsafe.StringData(Catalog[i].Key) {
			t.Errorf("Mask(%q) returned a copy of the catalog key, not the key itself", rendered)
		}
		if n := testing.AllocsPerRun(100, func() { Mask(rendered) }); n != 0 {
			t.Errorf("Mask(%q): %v allocs, want 0", rendered, n)
		}
	}
	unseen := "a phrase 17 the catalog has never seen"
	if n := testing.AllocsPerRun(100, func() { Mask(unseen) }); n != 1 {
		t.Errorf("Mask(unseen): %v allocs, want 1", n)
	}
	long := strings.Repeat("x", 300) + " spills the scratch"
	if got := Mask(long); got != long {
		t.Errorf("Mask of a %d-byte static message changed it: %q", len(long), got)
	}
}

// MaskRef names the entry its index lookup found, RefOf finds the same
// entry from the key alone, and neither ever names a runtime extension
// or an unseen phrase.
func TestMaskRefNamesTheEntry(t *testing.T) {
	defer ResetExtended()
	for i, p := range Catalog {
		key, ref := MaskRef(strings.ReplaceAll(p.Template, "*", "pid=4411 0x1f"))
		if key != p.Key || ref != Ref(i+1) || RefOf(p.Key) != ref {
			t.Fatalf("catalog[%d]: MaskRef = %q, %d; RefOf = %d; want %q, %d", i, key, ref, RefOf(p.Key), p.Key, i+1)
		}
	}
	Extend("seen at runtime *", Error)
	for _, msg := range []string{"seen at runtime 7", "never seen at all 7", "", "*"} {
		if key, ref := MaskRef(msg); ref != 0 || RefOf(key) != 0 || key != Mask(msg) {
			t.Errorf("MaskRef(%q) = %q, %d; RefOf = %d: want ref 0", msg, key, ref, RefOf(key))
		}
	}
}

var maskSink string

func BenchmarkMask(b *testing.B) {
	msgs := make([]string, len(Catalog))
	for i, p := range Catalog {
		msgs[i] = strings.ReplaceAll(p.Template, "*", "pid=4411")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maskSink = Mask(msgs[i%len(msgs)])
	}
}

// BenchmarkMaskRefDeclined times MaskRef on messages the recogniser
// declines, which pay its dispatch and verification before the masker:
// phrases the catalog has never seen under its busiest first tokens
// ("Lustre:", four keys; a dynamic token, the "*" keys), and known
// phrases with a tab where a key has a space.
func BenchmarkMaskRefDeclined(b *testing.B) {
	for _, c := range []struct {
		name  string
		known bool
		msgs  []string
	}{
		{"unseen", false, []string{
			"Lustre: 0x7f3a lock callback timer expired after 1532s",
			"Lustre: recovery aborted for target ost0012 after 300s",
			"Lustre: lnet0 connected via proxy 10.1.7.4@o2ib",
			"0x1f adapter reset requested on port 3",
			"c0-0c1s4n2 link training failed lane 7",
		}},
		{"tab", true, []string{
			"Lustre: recovery complete for target\tost0012",
			"Lustre: 12 connected to\t10.1.7.4@o2ib",
			"Kernel panic - not syncing: Fatal Machine check\t7",
			"DVS: mount point established for\t/lus/scratch0",
			"7 Correctable AER_BAD_TLP Error\t0x1f",
		}},
	} {
		for _, msg := range c.msgs {
			if recognise(msg) != 0 {
				b.Fatalf("%q: recognised, want declined", msg)
			}
			if _, ref := MaskRef(msg); (ref != 0) != c.known {
				b.Fatalf("%q: ref %d, want known %v", msg, ref, c.known)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maskSink, _ = MaskRef(c.msgs[i%len(c.msgs)])
			}
		})
	}
}
