package simsvc

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
)

// BenchmarkSweepReplay times a 3-benchmark × 3-model sweep on a warm trace
// cache. CacheSize 1 defeats the result LRU so every job really replays;
// one untimed warm-up sweep fills the trace cache (steady-state serving,
// the case the engine exists for). The batch-vs-scalar replay gate lives
// at the trace level (TestStreamingReplayPerfSmoke).
func BenchmarkSweepReplay(b *testing.B) {
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	models := []string{pipeline.NameBaseline32, pipeline.NameByteSerial, pipeline.NameParallelCompressed}

	cfg := Config{Workers: 1, CacheSize: 1}
	for _, n := range benches {
		bm, ok := bench.ByName(n)
		if !ok {
			b.Fatalf("unknown benchmark %q", n)
		}
		cfg.Benchmarks = append(cfg.Benchmarks, bm)
	}
	s := New(cfg)
	b.Cleanup(s.Close)
	sweep := func() {
		sum, err := s.Sweep(context.Background(), 1, benches, models, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed != 0 {
			b.Fatalf("sweep failed %d jobs: %+v", sum.Failed, sum.FailedByModel)
		}
	}
	sweep() // warm-up: recoder profile + trace captures
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
