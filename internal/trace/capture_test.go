package trace_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/trace"
)

// captureTestBenches are small suite members that still cover loads,
// stores, branches, mult/div, and jal/jr shapes.
var captureTestBenches = []string{"dijkstra", "g711dec", "rawdaudio"}

func mustBench(t testing.TB, name string) bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not in suite", name)
	}
	return b
}

func defaultRecoder(t *testing.T) *icomp.Recoder {
	t.Helper()
	return icomp.MustNewRecoder(icomp.DefaultTopFuncts())
}

type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Consume(e trace.Event) { r.events = append(r.events, e) }

// replayWithMemory replays rep over a freshly rebuilt memory image, the
// way the suite drives a capture: plain consumers such as eventRecorder
// ride the scalar shim and see every reconstructed Event.
func replayWithMemory(ctx context.Context, rep trace.Replayer, rc *icomp.Recoder, consumers ...trace.Consumer) error {
	m, err := rep.NewMemory()
	if err != nil {
		return err
	}
	return rep.ReplayBlocksOn(ctx, m, rc, consumers...)
}

// TestReplayBitIdentical replays a captured trace and demands exact Event
// equality — every cpu.Exec field and every significance quantity — with
// the live run.
func TestReplayBitIdentical(t *testing.T) {
	rc := defaultRecoder(t)
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		live := &eventRecorder{}
		if _, err := trace.Run(b, rc, live); err != nil {
			t.Fatalf("%s: live run: %v", name, err)
		}
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		replayed := &eventRecorder{}
		if err := replayWithMemory(context.Background(), cp, rc, replayed); err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if len(replayed.events) != len(live.events) {
			t.Fatalf("%s: replay produced %d events, live %d", name, len(replayed.events), len(live.events))
		}
		for i := range live.events {
			if !reflect.DeepEqual(replayed.events[i], live.events[i]) {
				t.Fatalf("%s: replay event %d differs:\n live   %+v\n replay %+v",
					name, i, live.events[i], replayed.events[i])
			}
		}
	}
}

// TestReplayActivityIdentical runs the activity collector (which reads
// program memory at cache-fill time) live and over a replayed shadow
// memory, and demands identical counts at both granularities.
func TestReplayActivityIdentical(t *testing.T) {
	rc := defaultRecoder(t)
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		for _, gran := range []int{1, 2} {
			c, err := b.NewCPU()
			if err != nil {
				t.Fatalf("%s: NewCPU: %v", name, err)
			}
			liveCol := activity.NewCollector(gran, rc, c.Mem)
			if err := trace.RunOn(c, b, rc, liveCol); err != nil {
				t.Fatalf("%s: live run: %v", name, err)
			}

			cp, err := trace.CaptureRun(context.Background(), b)
			if err != nil {
				t.Fatalf("%s: CaptureRun: %v", name, err)
			}
			m, err := cp.NewMemory()
			if err != nil {
				t.Fatalf("%s: NewMemory: %v", name, err)
			}
			replayCol := activity.NewCollector(gran, rc, m)
			// The scalar Consume, through the shim: the same collector code
			// as the live run, so only event reconstruction is under test.
			if err := cp.ReplayBlocksOn(context.Background(), m, rc, trace.ConsumerFunc(replayCol.Consume)); err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if got, want := replayCol.Counts(), liveCol.Counts(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s gran %d: replayed activity differs:\n live   %+v\n replay %+v",
					name, gran, want, got)
			}
		}
	}
}

// TestCaptureSizeBound pins the capture format to the documented
// per-instruction budget.
func TestCaptureSizeBound(t *testing.T) {
	for _, name := range captureTestBenches {
		b := mustBench(t, name)
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		if cp.Len() == 0 {
			t.Fatalf("%s: empty capture", name)
		}
		perInst := float64(cp.SizeBytes()) / float64(cp.Len())
		if perInst > trace.MaxBytesPerInst {
			t.Errorf("%s: %.1f B/instruction exceeds budget %d (size %d, %d insts, %d statics)",
				name, perInst, trace.MaxBytesPerInst, cp.SizeBytes(), cp.Len(), cp.Statics())
		}
		t.Logf("%s: %d insts, %d statics, %.1f B/instruction", name, cp.Len(), cp.Statics(), perInst)
	}
}

// TestCaptureFunctCounts checks that the capture's dynamic funct tally
// matches the interpreter-based profile.
func TestCaptureFunctCounts(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	want, err := trace.FunctProfile([]bench.Benchmark{b})
	if err != nil {
		t.Fatalf("FunctProfile: %v", err)
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if got := cp.FunctCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("FunctCounts = %v, want %v", got, want)
	}
}

// TestReplaySecondRecoder replays one capture under a different recoding
// and checks the re-derived IFBytes against the pure Annotate path.
func TestReplaySecondRecoder(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	rc2, _, err := trace.SuiteRecoder([]bench.Benchmark{b})
	if err != nil {
		t.Fatalf("SuiteRecoder: %v", err)
	}
	checked := 0
	err = cp.ReplayBlocks(context.Background(), rc2, trace.ConsumerFunc(func(e trace.Event) {
		if want := rc2.FetchBytes(e.Raw); e.IFBytes != want {
			t.Fatalf("event %d: IFBytes %d, want %d", checked, e.IFBytes, want)
		}
		checked++
	}))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if checked != cp.Len() {
		t.Fatalf("replayed %d events, capture holds %d", checked, cp.Len())
	}
}

// TestCaptureReplayCancel exercises context cancellation on both the
// capture and replay loops.
func TestCaptureReplayCancel(t *testing.T) {
	b := mustBench(t, captureTestBenches[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trace.CaptureRun(ctx, b); err == nil {
		t.Error("CaptureRun under cancelled context succeeded")
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if err := cp.ReplayBlocks(ctx, defaultRecoder(t)); err == nil {
		t.Error("replay under cancelled context succeeded")
	}
}
