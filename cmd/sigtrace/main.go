// Command sigtrace records benchmark execution traces to disk and replays
// them through pipeline models and activity collectors — the classic
// trace-driven-simulation workflow (record once, study many times).
// Traces are SIGCAP02 capture files, the same format sigserve and sigsim
// keep in their capture directories; replay streams them frame by frame
// from a read-only mapping.
//
// Usage:
//
//	sigtrace -record -bench rawcaudio -o rawcaudio.sigcap
//	sigtrace -replay rawcaudio.sigcap -model byteserial
//	sigtrace -replay rawcaudio.sigcap         # all models + activity
//	sigtrace -replay caps/crc32.sigcap        # any capture-dir file replays too
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	record := flag.Bool("record", false, "record a benchmark trace")
	benchName := flag.String("bench", "", "benchmark to record")
	out := flag.String("o", "trace"+trace.CapFileExt, "output file for -record")
	replay := flag.String("replay", "", "trace file to replay")
	modelName := flag.String("model", "", "pipeline model for replay (default: all)")
	flag.Parse()

	switch {
	case *record:
		if err := doRecord(*benchName, *out); err != nil {
			fmt.Fprintf(os.Stderr, "sigtrace: %v\n", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := doReplay(*replay, *modelName); err != nil {
			fmt.Fprintf(os.Stderr, "sigtrace: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doRecord(name, out string) error {
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (have: %v)", name, bench.Names())
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if _, err := cp.WriteTo2(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", cp.Len(), b.Name, out)
	return nil
}

func doReplay(path, modelName string) error {
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())

	names := pipeline.AllNames()
	if modelName != "" {
		if pipeline.New(modelName) == nil {
			return fmt.Errorf("unknown model %q", modelName)
		}
		names = []string{modelName}
	}
	models := make([]*pipeline.Model, len(names))
	consumers := make([]trace.Consumer, 0, len(names))
	for i, n := range names {
		models[i] = pipeline.New(n)
		consumers = append(consumers, models[i])
	}
	patterns := activity.NewPatternStats()
	consumers = append(consumers, patterns)

	// Interrupt aborts the replay between frames instead of leaving the
	// process to grind through the rest of a long trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		return err
	}
	defer mc.Close()
	img, err := mc.NewMemory()
	if err != nil {
		return err
	}
	if err := mc.ReplayBlocksOn(ctx, img, rc, consumers...); err != nil {
		return err
	}
	fmt.Printf("replayed %d instructions of %s from %s\n\n", mc.Len(), mc.Bench().Name, path)
	t := stats.NewTable("CPI (replayed)", "model", "CPI")
	for _, m := range models {
		t.AddStringRow(m.Name(), fmt.Sprintf("%.3f", m.Result().CPI()))
	}
	fmt.Println(t.String())
	fmt.Printf("operand 2-bit coverage: %.1f%%\n", patterns.TwoBitCoverage())
	return nil
}
