package pipeline

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// BenchmarkModelReplay measures one model consuming one captured benchmark
// trace, scalar (event-at-a-time Consume) versus batch (ConsumeBlock over
// column blocks) — the per-job cost of a warm sweep under each path.
func BenchmarkModelReplay(b *testing.B) {
	bm, ok := bench.ByName("dijkstra")
	if !ok {
		b.Fatal("unknown benchmark")
	}
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, model := range []string{NameBaseline32, NameByteSerial, NameParallelCompressed} {
		for _, path := range []string{"scalar", "batch"} {
			b.Run(fmt.Sprintf("%s/%s", model, path), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m := New(model)
					var err error
					if path == "batch" {
						err = cp.ReplayBlocks(ctx, rc, m)
					} else {
						err = cp.ReplayBlocks(ctx, rc, trace.ConsumerFunc(m.Consume))
					}
					if err != nil {
						b.Fatal(err)
					}
					if m.Result().Cycles == 0 {
						b.Fatal("no cycles")
					}
				}
			})
		}
	}
}
