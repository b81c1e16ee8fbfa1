package chaos

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkClusterThroughput measures sustained ingest through a
// replicated router (election on, one router) into fleets of 1, 2 and
// 3 instances — the number BENCH_PR9.json (git history) recorded; the
// routed figure is now bench/'s routed_raw, DESIGN §17. Each op is one raw
// log line entering IngestLine; the final Flush (delivery of every
// queued batch) is inside the timed region, so ns/op is true
// end-to-end cluster cost, not enqueue cost.
func BenchmarkClusterThroughput(b *testing.B) {
	lines, maxPerNode := soakLines(b, 224)
	depth := maxPerNode + 16
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("instances-%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("i%d", i)
			}
			f, err := NewFleet(b.TempDir(), depth, factory(b), names...)
			if err != nil {
				b.Fatal(err)
			}
			r, err := f.NewRouter("r0", 2*time.Second, nil)
			if err != nil {
				b.Fatal(err)
			}
			waitFor(b, 15*time.Second, "election", r.IsCoordinator)
			waitConverged(b, f, f.Members...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.IngestLine(lines[i%len(lines)]); err != nil {
					b.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			if err := r.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			cancel()
			b.StopTimer()
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			for _, m := range f.Members {
				if _, err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
