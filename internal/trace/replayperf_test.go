package trace_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestStreamingReplayPerfSmoke is the CI gate for the replay engine at the
// suite-replay unit: one replay feeding the FULL consumer set (every
// pipeline model plus an activity collector), which is how RunBenchReplay
// and the sigserve suite endpoint drive a capture — decode once, consume
// many. Gates, best-of-N wall clock summed over the benches, with the
// three arms interleaved inside each round:
//
//   - batch replay through the block kernels at least 1.5x faster than the
//     same replay with every consumer wrapped in a ConsumerFunc, which
//     forces its scalar Consume through the scalar shim — the margin is
//     set against a measured ~3x so scheduler noise cannot flake it, and a
//     kernel falling back to the shim lands at 1.0x and fails clearly;
//   - streaming (mapped SIGCAP02, per-frame decode) within 1.3x of the
//     resident batch replay;
//   - the mapped handle's accounted resident bytes under a quarter of the
//     decoded column size (6 u32 columns/row) — replay memory is O(frame),
//     not O(trace).
//
// Wall-clock gates are too noisy for every developer run, so this only
// arms under SIGPERF_SMOKE=1. When BENCH_REPLAY_OUT names a file, the
// measured totals for all three arms (batch, scalar, streaming) are
// written there as JSON for the CI artifact trail.
func TestStreamingReplayPerfSmoke(t *testing.T) {
	if os.Getenv("SIGPERF_SMOKE") == "" {
		t.Skip("set SIGPERF_SMOKE=1 to run the wall-clock replay smoke (CI does)")
	}
	benches := []string{"dijkstra", "g711dec", "rawdaudio"}
	rc := defaultRecoder(t)
	ctx := context.Background()
	dir := t.TempDir()

	resident := make([]trace.Replayer, len(benches))
	streamed := make([]trace.Replayer, len(benches))
	var decodedBytes, mappedBytes int64
	for i, name := range benches {
		cp, err := trace.CaptureRun(ctx, mustBench(t, name))
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		path, err := trace.WriteCaptureFile(dir, cp)
		if err != nil {
			t.Fatalf("%s: WriteCaptureFile: %v", name, err)
		}
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			t.Fatalf("%s: OpenMappedCapture: %v", name, err)
		}
		t.Cleanup(func() { mc.Close() })
		resident[i], streamed[i] = cp, mc
		decodedBytes += int64(cp.Len()) * 24 // six u32 columns per row
		mappedBytes += int64(mc.SizeBytes())
	}

	// One replay drives every model plus a byte-granularity activity
	// collector — the suite evaluation's consumer set.
	replay := func(rep trace.Replayer, scalar bool) error {
		m, err := rep.NewMemory()
		if err != nil {
			return err
		}
		models := pipeline.NewAll()
		consumers := make([]trace.Consumer, 0, len(models)+1)
		for _, pm := range models {
			consumers = append(consumers, pm)
		}
		consumers = append(consumers, activity.NewCollector(1, rc, m))
		if scalar {
			for i, c := range consumers {
				consumers[i] = trace.ConsumerFunc(c.Consume)
			}
		}
		return rep.ReplayBlocksOn(ctx, m, rc, consumers...)
	}

	// pass replays every bench once and returns the wall time.
	pass := func(reps []trace.Replayer, scalar bool) time.Duration {
		t.Helper()
		start := time.Now()
		for _, rep := range reps {
			if err := replay(rep, scalar); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	arms := []struct {
		reps   []trace.Replayer
		scalar bool
		best   time.Duration
	}{{reps: resident}, {reps: resident, scalar: true}, {reps: streamed}}
	// Warm-up pass: page in the mappings, fill the recoder memos.
	for _, a := range arms {
		pass(a.reps, a.scalar)
	}
	// Every round times all three arms back to back, starting from a
	// rotating arm, and each arm keeps its fastest round: a host phase
	// change (another tenant's burst, a frequency step) then slows every
	// arm of the round it hits instead of landing on one arm's whole
	// measurement.
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for k := range arms {
			a := &arms[(r+k)%len(arms)]
			if d := pass(a.reps, a.scalar); a.best == 0 || d < a.best {
				a.best = d
			}
		}
	}
	batch, scalar, streaming := arms[0].best, arms[1].best, arms[2].best
	t.Logf("suite replay best-of-%d: batch %v, scalar %v, streaming %v (%.2fx of batch); decoded %d B, mapped resident %d B (%.1f%%)",
		rounds, batch, scalar, streaming, float64(streaming)/float64(batch),
		decodedBytes, mappedBytes, 100*float64(mappedBytes)/float64(decodedBytes))

	if batch*3/2 >= scalar {
		t.Errorf("batch replay is not decisively faster: scalar %v vs batch %v (want ≥1.5x)", scalar, batch)
	}
	if streaming*10 >= batch*13 {
		t.Errorf("streaming replay too slow: %v vs batch %v (gate 1.3x)", streaming, batch)
	}
	if mappedBytes*4 >= decodedBytes {
		t.Errorf("mapped tier holds %d resident bytes, decoded columns are %d: want < 1/4 (O(frame), not O(trace))",
			mappedBytes, decodedBytes)
	}

	if out := os.Getenv("BENCH_REPLAY_OUT"); out != "" {
		doc, err := json.MarshalIndent(map[string]interface{}{
			"benches":             benches,
			"rounds":              rounds,
			"batchNs":             batch.Nanoseconds(),
			"scalarNs":            scalar.Nanoseconds(),
			"streamingNs":         streaming.Nanoseconds(),
			"streamingVsBatch":    float64(streaming) / float64(batch),
			"decodedColumnBytes":  decodedBytes,
			"mappedResidentBytes": mappedBytes,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote %s", out)
	}
}
