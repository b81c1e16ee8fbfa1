package persist

import (
	"hash/fnv"
	"testing"
)

// FuzzNodeHash holds NodeHash's loop to hash/fnv's New32a, the FNV-1a
// every placement in the system was defined by.
func FuzzNodeHash(f *testing.F) {
	for _, s := range []string{"", "i0#7", "c0-0c0s0n0", "c11-3c2s15n3", "\xff\x00é"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := NodeHash(s), h.Sum32(); got != want {
			t.Fatalf("NodeHash(%q) = %d, FNV-1a %d", s, got, want)
		}
	})
}

// TestNodeHashGolden pins ring placement (vnode names are
// "<member>#<i>") and the persisted hash ranges nodes fall in (Cray
// node ids): a value here moving would move nodes between instances and
// shards, and strand journaled ranges.
func TestNodeHashGolden(t *testing.T) {
	for _, c := range []struct {
		s string
		h uint32
	}{
		{"i0#0", 1692143015},
		{"i0#7", 1641810158},
		{"i1#63", 1299962175},
		{"a#0", 4037809751},
		{"b#127", 3377331090},
		{"c0-0c0s0n0", 2001816013},
		{"c0-0c0s0n1", 1985038394},
		{"c3-1c1s7n2", 1426132019},
		{"c11-3c2s15n3", 3943323751},
	} {
		if got := NodeHash(c.s); got != c.h {
			t.Errorf("NodeHash(%q) = %d, want %d", c.s, got, c.h)
		}
	}
}

var nodeHashSink uint32

func TestNodeHashAllocatesNothing(t *testing.T) {
	node := string([]byte("c11-3c2s15n3"))
	if n := testing.AllocsPerRun(1000, func() { nodeHashSink += NodeHash(node) }); n != 0 {
		t.Fatalf("NodeHash allocates %v times a call, want 0", n)
	}
}

// BenchmarkNodeHash is one NodeHash of a Cray node id, what admission
// pays per event for the ownership check and the shard choice.
func BenchmarkNodeHash(b *testing.B) {
	node := string([]byte("c11-3c2s15n3"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodeHashSink += NodeHash(node)
	}
}
