package activity

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// TestCollectorBatchIdentical pins the collector's batch path to the scalar
// reference: replaying a capture through ConsumeBlock must produce exactly
// the same Counts as the event-at-a-time path, at every granularity and
// scheme. This also exercises the engine's store-delimited spans — the
// collector reads cache-line contents from program memory at fill time, so
// any store-ordering error in batch replay shows up as a fill-bit diff.
func TestCollectorBatchIdentical(t *testing.T) {
	ctx := context.Background()
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	for _, bn := range []string{"dijkstra", "g711dec", "rawdaudio"} {
		b, ok := bench.ByName(bn)
		if !ok {
			t.Fatalf("unknown benchmark %q", bn)
		}
		cp, err := trace.CaptureRun(ctx, b)
		if err != nil {
			t.Fatalf("capture %s: %v", bn, err)
		}
		for _, cfg := range []struct {
			label  string
			g      int
			scheme Scheme
		}{
			{"byte/3bit", 1, Scheme3},
			{"byte/2bit", 1, Scheme2},
			{"half", 2, Scheme3},
		} {
			memS, err := cp.NewMemory()
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			scalar := NewCollectorScheme(cfg.g, cfg.scheme, rc, memS)
			if err := cp.ReplayBlocksOn(ctx, memS, rc, trace.ConsumerFunc(scalar.Consume)); err != nil {
				t.Fatalf("%s/%s scalar replay: %v", bn, cfg.label, err)
			}
			memB, err := cp.NewMemory()
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			batch := NewCollectorScheme(cfg.g, cfg.scheme, rc, memB)
			if err := cp.ReplayBlocksOn(ctx, memB, rc, batch); err != nil {
				t.Fatalf("%s/%s batch replay: %v", bn, cfg.label, err)
			}
			if scalar.Counts() != batch.Counts() {
				t.Errorf("%s/%s: batch counts diverge\nscalar: %+v\nbatch:  %+v",
					bn, cfg.label, scalar.Counts(), batch.Counts())
			}
		}
	}
}
