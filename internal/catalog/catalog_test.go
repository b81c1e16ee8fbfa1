package catalog

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	cases := map[string]string{
		"Setting flag":                         "Setting flag",
		"hwerr[28451]: Correctable error":      "* Correctable error",
		"CPU 12: Machine Check Exception:":     "CPU * Machine Check Exception:",
		"pid 4411 killed":                      "pid * killed",
		"a 1 2 3 b":                            "a * b",
		"0x6624":                               "*",
		"":                                     "",
		"LNet: hardware quiesce 20141216t162,": "LNet: hardware quiesce *",
	}
	for in, want := range cases {
		if got := Mask(in); got != want {
			t.Errorf("Mask(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMaskIdempotent(t *testing.T) {
	f := func(s string) bool {
		m := Mask(s)
		return Mask(m) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskCollapsesWhitespace(t *testing.T) {
	if got := Mask("a    b\tc"); got != "a b c" {
		t.Fatalf("got %q", got)
	}
}

func TestCatalogKeysComputed(t *testing.T) {
	for _, p := range Catalog {
		if p.Key == "" {
			t.Fatalf("entry %q has empty key", p.Template)
		}
		if p.Key != Mask(p.Template) {
			t.Fatalf("entry %q key %q != Mask(template) %q", p.Template, p.Key, Mask(p.Template))
		}
	}
}

// Every static (non-*) token of every template must be digit-free,
// otherwise rendered messages cannot round-trip to the catalog key.
func TestTemplatesDigitFree(t *testing.T) {
	for _, p := range Catalog {
		for _, tok := range strings.Fields(p.Template) {
			if strings.Contains(tok, "*") {
				continue
			}
			if strings.ContainsAny(tok, "0123456789") {
				t.Errorf("template %q has digit-bearing static token %q", p.Template, tok)
			}
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	for _, p := range Catalog {
		got, ok := Lookup(p.Key)
		if !ok {
			t.Fatalf("Lookup(%q) missing", p.Key)
		}
		if got.Template != p.Template || got.Label != p.Label {
			t.Fatalf("Lookup(%q) returned a different entry", p.Key)
		}
	}
	if _, ok := Lookup("definitely not a phrase"); ok {
		t.Fatal("Lookup must miss for unknown keys")
	}
}

func TestCatalogHasAllThreeLabels(t *testing.T) {
	counts := map[Label]int{}
	for _, p := range Catalog {
		counts[p.Label]++
	}
	for _, l := range []Label{Safe, Unknown, Error} {
		if counts[l] < 5 {
			t.Fatalf("label %v has only %d phrases", l, counts[l])
		}
	}
}

func TestTerminalsAreErrors(t *testing.T) {
	terms := Keys(func(p Phrase) bool { return p.Terminal })
	if len(terms) < 3 {
		t.Fatalf("only %d terminal phrases", len(terms))
	}
	for _, key := range terms {
		p, _ := Lookup(key)
		if p.Label != Error {
			t.Errorf("terminal %q labeled %v, want Error", key, p.Label)
		}
	}
}

func TestEveryClassHasUnknownPhrases(t *testing.T) {
	for _, c := range Classes {
		n := 0
		for _, p := range Catalog {
			if p.Class == c && p.Label == Unknown {
				n++
			}
		}
		if n < 2 {
			t.Errorf("class %v has only %d Unknown phrases", c, n)
		}
	}
}

func TestKeysFilter(t *testing.T) {
	all := Keys(nil)
	if len(all) != len(Catalog) {
		t.Fatalf("Keys(nil) returned %d, want %d", len(all), len(Catalog))
	}
	safe := Keys(func(p Phrase) bool { return p.Label == Safe })
	for _, k := range safe {
		p, _ := Lookup(k)
		if p.Label != Safe {
			t.Fatalf("filter leak: %q", k)
		}
	}
}

func TestLabelClassStrings(t *testing.T) {
	if Safe.String() != "Safe" || Unknown.String() != "Unknown" || Error.String() != "Error" {
		t.Fatal("label strings")
	}
	if ClassMCE.String() != "MCE" || ClassFS.String() != "FileSystem" {
		t.Fatal("class strings")
	}
	if Label(9).String() == "" || Class(9).String() == "" {
		t.Fatal("out-of-range strings must not be empty")
	}
}
