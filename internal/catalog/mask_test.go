package catalog

import (
	"strings"
	"testing"
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
