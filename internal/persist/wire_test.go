package persist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"desh/internal/catalog"
	"desh/internal/logparse"
)

// wireCorpus is n random events over the given node ids: times across
// the whole Unix-nanosecond range, static catalog keys and (when
// unknown is set) keys the catalog has never seen, messages of any
// length including none.
func wireCorpus(rng *rand.Rand, n int, nodes []string, unknown bool) []logparse.Event {
	keys := catalog.Keys(nil)
	out := make([]logparse.Event, n)
	for i := range out {
		key := keys[rng.Intn(len(keys))]
		if unknown && rng.Intn(3) == 0 {
			key = fmt.Sprintf("unseen phrase %d *", rng.Intn(5))
		}
		var tn int64
		switch rng.Intn(4) {
		case 0:
			tn = math.MinInt64 + rng.Int63n(1000)
		case 1:
			tn = math.MaxInt64 - rng.Int63n(1000)
		default:
			tn = rng.Int63() - rng.Int63()
		}
		msg := fmt.Sprintf("%s %d", key, rng.Intn(1e6))[:rng.Intn(len(key)+1)]
		out[i] = logparse.NewEvent(time.Unix(0, tn).UTC(), nodes[rng.Intn(len(nodes))], msg, key)
	}
	return out
}

func wireBody(evs []logparse.Event) []byte {
	var b EventBatch
	for _, ev := range evs {
		b.Add(&ev)
	}
	return b.Bytes()
}

// decodeEach runs DecodeEventBatch and then hands fn each decoded event
// with its record and carried node hash, in order (those before a
// damaged frame too).
func decodeEach(body []byte, table *NodeTable, fn func(ev logparse.Event, record []byte, h uint32)) error {
	var (
		evs  []logparse.Event
		recs [][]byte
		hs   []uint32
	)
	err := DecodeEventBatch(body, table, func(record []byte, h uint32) *logparse.Event {
		evs, recs, hs = append(evs, logparse.Event{}), append(recs, record), append(hs, h)
		return &evs[len(evs)-1]
	})
	for i := range evs {
		fn(evs[i], recs[i], hs[i])
	}
	return err
}

// TestWireDecodeMatchesDecodeEvent: record for record, the in-place wire
// decode is DecodeEvent(...).Event() in time, node, key and Ref with the
// message left out; its record is the frame's bytes; every event of one
// node shares one node string, a static key is the catalog's own
// string, and a warm decode of catalog phrases allocates nothing.
func TestWireDecodeMatchesDecodeEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	nodes := []string{"c0-0c0s0n0", "c0-0c0s0n1", "c1-0c2s7n3", "", "n"}
	for round := 0; round < 20; round++ {
		evs := wireCorpus(rng, 1+rng.Intn(300), nodes, true)
		body := wireBody(evs)
		var table NodeTable
		shared := make(map[string]*byte)
		i := 0
		err := decodeEach(body, &table, func(ev logparse.Event, record []byte, _ uint32) {
			if !bytes.Equal(record, EncodeEvent(RecordOf(evs[i]))) {
				t.Fatalf("round %d record %d: record %x, want the frame's bytes", round, i, record)
			}
			rec, err := DecodeEvent(record[1:])
			if err != nil {
				t.Fatal(err)
			}
			want := rec.Event()
			if ev.Time != want.Time || ev.Node != want.Node || ev.Key != want.Key || ev.Ref() != want.Ref() || ev.Message != "" {
				t.Fatalf("round %d record %d: decoded %+v (ref %d), want %+v (ref %d) with no message", round, i, ev, ev.Ref(), want, want.Ref())
			}
			if p, ok := shared[ev.Node]; ok && p != unsafe.StringData(ev.Node) && ev.Node != "" {
				t.Fatalf("round %d record %d: node %q is a second string", round, i, ev.Node)
			}
			shared[ev.Node] = unsafe.StringData(ev.Node)
			if ev.Ref() != 0 && unsafe.StringData(ev.Key) != unsafe.StringData(catalog.Catalog[ev.Ref()-1].Key) {
				t.Fatalf("round %d record %d: key %q is a copy of the catalog's", round, i, ev.Key)
			}
			i++
		})
		if err != nil || i != len(evs) {
			t.Fatalf("round %d: decoded %d of %d records: %v", round, i, len(evs), err)
		}
		if len(table.m) > len(nodes) {
			t.Fatalf("round %d: table holds %d ids for %d nodes", round, len(table.m), len(nodes))
		}
	}

	var table NodeTable
	body := wireBody(wireCorpus(rng, 512, nodes, false))
	var slot logparse.Event
	decode := func() {
		if err := DecodeEventBatch(body, &table, func([]byte, uint32) *logparse.Event { return &slot }); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(20, decode); n != 0 {
		t.Errorf("warm decode of 512 catalog records: %v allocations, want 0", n)
	}
}

// TestNodeTableBound: a body of more distinct node ids than the table
// holds decodes every one of them correctly and leaves the table at its
// bound, still resolving the ids it took first.
func TestNodeTableBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := make([]string, maxNodeTable+500)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("c%d-0c0s0n%d", i/4, i%4)
	}
	evs := wireCorpus(rng, len(nodes), nodes, false)
	for i := range evs {
		evs[i].Node = nodes[i]
	}
	var table NodeTable
	i := 0
	if err := decodeEach(wireBody(evs), &table, func(ev logparse.Event, _ []byte, _ uint32) {
		if ev.Node != nodes[i] || ev.Time != evs[i].Time || ev.Key != evs[i].Key {
			t.Fatalf("record %d: decoded %+v, want %+v", i, ev, evs[i])
		}
		i++
	}); err != nil || i != len(evs) {
		t.Fatalf("decoded %d of %d records: %v", i, len(evs), err)
	}
	if len(table.m) != maxNodeTable {
		t.Fatalf("table holds %d ids, want its bound %d", len(table.m), maxNodeTable)
	}
	if n := testing.AllocsPerRun(20, func() { table.intern([]byte(nodes[0])) }); n != 0 {
		t.Errorf("an id taken before the bound: %v allocations, want 0", n)
	}
	if got := table.intern([]byte(nodes[len(nodes)-1])); got.node != nodes[len(nodes)-1] || len(table.m) != maxNodeTable {
		t.Errorf("an id past the bound: %q, table at %d", got.node, len(table.m))
	}
}

// TestWireDecodeCarriesNodeHash: the hash the decode hands over with
// each record is NodeHash of the record's node, whether the node came
// from the table, was interned on first sight, arrived past the table's
// bound or was decoded with no table at all.
func TestWireDecodeCarriesNodeHash(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	nodes := make([]string, maxNodeTable+300)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("c%d-0c1s0n%d", i/4, i%4)
	}
	nodes[0] = ""
	// Every node once in order, so the table fills to its bound and the
	// tail arrives past it, then a random draw over all of them twice.
	evs := wireCorpus(rng, len(nodes)+2*len(nodes), nodes, true)
	for i := range nodes {
		evs[i].Node = nodes[i]
	}
	body := wireBody(evs)
	for _, table := range []*NodeTable{new(NodeTable), nil} {
		for pass := 0; pass < 2; pass++ {
			i := 0
			err := decodeEach(body, table, func(ev logparse.Event, _ []byte, h uint32) {
				if ev.Node != evs[i].Node || h != NodeHash(ev.Node) {
					t.Fatalf("table %t pass %d record %d: node %q hash %#x, want %q %#x", table != nil, pass, i, ev.Node, h, evs[i].Node, NodeHash(evs[i].Node))
				}
				i++
			})
			if err != nil || i != len(evs) {
				t.Fatalf("table %t pass %d: decoded %d of %d records: %v", table != nil, pass, i, len(evs), err)
			}
		}
		if table != nil && len(table.m) != maxNodeTable {
			t.Fatalf("table holds %d ids, want its bound %d", len(table.m), maxNodeTable)
		}
	}
}

// BenchmarkDecodeEventBatch is the in-place wire decode of a warm
// 512-record body over 512 nodes and catalog phrases: what a routed
// instance pays per record before admission.
func BenchmarkDecodeEventBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	nodes := make([]string, 512)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("c%d-0c0s0n%d", i/4, i%4)
	}
	body := wireBody(wireCorpus(rng, 512, nodes, false))
	var table NodeTable
	evs := make([]logparse.Event, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs = evs[:0]
		if err := DecodeEventBatch(body, &table, func([]byte, uint32) *logparse.Event {
			evs = append(evs, logparse.Event{})
			return &evs[len(evs)-1]
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/record")
}
