package trace_test

import (
	"context"
	"testing"

	"repro/internal/icomp"
	"repro/internal/trace"
)

func benchRecoder(b *testing.B) *icomp.Recoder {
	b.Helper()
	rc, err := icomp.NewRecoder(icomp.DefaultTopFuncts())
	if err != nil {
		b.Fatal(err)
	}
	return rc
}

// BenchmarkStepAnnotate measures the live path: interpret the benchmark and
// annotate every retired instruction (the per-raw IFBytes memo included).
func BenchmarkStepAnnotate(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	sink := trace.ConsumerFunc(func(trace.Event) {})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.RunCtx(ctx, bm, rc, sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapture measures capture alone: interpret once, record the
// columnar trace, no annotation consumers attached.
func BenchmarkCapture(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.CaptureRun(ctx, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures re-annotating a captured trace without the
// interpreter for a plain Consumer: every row is rebuilt into an Event by
// the scalar shim, the cost a consumer without a block kernel pays.
func BenchmarkReplay(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	sink := trace.ConsumerFunc(func(trace.Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.ReplayBlocks(ctx, rc, sink); err != nil {
			b.Fatal(err)
		}
	}
}

// batchSink is a BatchConsumer that discards blocks: benchmarks of the
// replay engines themselves, with no consumer work attached.
type batchSink struct{}

func (batchSink) Consume(trace.Event)       {}
func (batchSink) ConsumeBlock(*trace.Block) {}

// BenchmarkReplayBlocks measures the column-block batch path over a fully
// resident capture — the hot loop of a warm sweep once the trace is decoded.
func BenchmarkReplayBlocks(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.ReplayBlocks(ctx, rc, batchSink{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayStreamed measures the same batch replay streamed from a
// mapped SIGCAP02 file: every frame is varint-decoded on the fly into one
// reused buffer, so replay memory is O(frame) instead of O(trace). The
// delta against BenchmarkReplayBlocks is the pure per-frame decode cost.
func BenchmarkReplayStreamed(b *testing.B) {
	bm := mustBench(b, "dijkstra")
	rc := benchRecoder(b)
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, bm)
	if err != nil {
		b.Fatal(err)
	}
	path, err := trace.WriteCaptureFile(b.TempDir(), cp)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.ReplayBlocks(ctx, rc, batchSink{}); err != nil {
			b.Fatal(err)
		}
	}
}
