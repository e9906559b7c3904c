package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/trace"
)

// suiteWorkers is the worker count of the paper-suite evaluation, as a
// reproducer on a 2-core host would run it.
const suiteWorkers = 2

// suiteCold is the reproducer's job: the whole paper suite evaluated in
// process, capture included, once per request. The input is the fixed
// suite, so the seed is unused.
func suiteCold(ctx context.Context, cfg config) (*outcome, error) {
	start := cpuNow()
	benches := bench.All()
	setup := []float64{(cpuNow() - start).Seconds()}
	o := newOutcome()
	if !cfg.trace {
		// bench.All builds the suite once per process, so the other
		// set-ups run in fresh processes.
		for len(setup) < suiteSetupScale*cfg.setups {
			s, err := probeSetup()
			if err != nil {
				return nil, err
			}
			setup = append(setup, s)
		}
		s, cpu, mallocs := measure(o, 0, 1, cfg.dur, func() (uint64, error) {
			return runSuite(ctx, benches)
		})
		o.endToEnd(s, cpu, mallocs, setup)
		return o, nil
	}

	// Traced: alternate untraced suites with suites rebuilt from the same
	// public calls RunSuite makes, each wrapped in a span.
	tr := newTracer()
	var plain, traced []float64
	deadline := time.Now().Add(cfg.dur)
	for len(traced) == 0 || time.Now().Before(deadline) {
		c := cpuNow()
		_, err := runSuite(ctx, benches)
		o.count(err)
		plain = append(plain, cpuMsSince(c))
		c = cpuNow()
		err = tracedSuite(ctx, tr, benches)
		o.count(err)
		traced = append(traced, cpuMsSince(c))
	}
	roots := tr.named("suite")
	var cover float64
	for _, root := range roots {
		var kids []interval
		for _, s := range tr.children(root.ID) {
			kids = append(kids, interval{s.Start, s.End})
		}
		cover += covered(kids, root.Start, root.End) / root.dur() / float64(len(roots))
	}
	o.layer("tracing_coverage_share", cover, "share")
	o.layer("tracing_overhead_share", median(traced)/median(plain)-1, "share")
	o.tracer = tr
	return o, nil
}

// suiteSetupScale times the configured number of set-ups are made, each
// about 10 ms of CPU, so their median is steady.
const suiteSetupScale = 3

// setupProbeFlag makes the binary time one bench.All() and print the CPU
// seconds it took.
const setupProbeFlag = "--setup-probe"

func timeSetup() float64 {
	start := cpuNow()
	bench.All()
	return (cpuNow() - start).Seconds()
}

// probeSetup times bench.All() in a fresh process.
func probeSetup() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, setupProbeFlag).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runSuite is one suite-cold request: experiments.RunSuite and the JSON
// rendering every reproducer reads, checked against the reference digest.
// It returns the instructions simulated.
func runSuite(ctx context.Context, benches []bench.Benchmark) (uint64, error) {
	res, err := experiments.RunSuite(ctx, benches, suiteWorkers)
	if err != nil {
		return 0, err
	}
	js, err := res.JSON()
	if err != nil {
		return 0, err
	}
	if d := digest(js); d != goldenDigest {
		return 0, fmt.Errorf("suite JSON digest %s, want %s", d, goldenDigest)
	}
	var insts uint64
	for _, b := range res.Bench {
		insts += b.Insts
	}
	return insts, nil
}

// tracedSuite performs RunSuite's steps one public call at a time, each in
// a span under one "suite" root: capture, recoder, per-benchmark replay on
// suiteWorkers goroutines, merge in suite order, and JSON encode.
func tracedSuite(ctx context.Context, tr *tracer, benches []bench.Benchmark) error {
	root := tr.open("suite", 0)
	defer tr.close(root, nil)
	var caps []*trace.Capture
	if err := tr.do("trace.capture_suite", root, func() (err error) {
		caps, err = experiments.CaptureSuite(ctx, benches, suiteWorkers)
		return err
	}); err != nil {
		return err
	}
	var rc *icomp.Recoder
	functs := make(map[isa.Funct]uint64)
	if err := tr.do("icomp.recoder", root, func() (err error) {
		for _, cp := range caps {
			for fn, n := range cp.FunctCounts() {
				functs[fn] += n
			}
		}
		rc, err = icomp.NewRecoder(icomp.TopFuncts(functs, 8))
		return err
	}); err != nil {
		return err
	}
	brs := make([]experiments.BenchResult, len(caps))
	cols := make([]*experiments.SuiteCollectors, len(caps))
	errs := make([]error, len(caps))
	next := make(chan int, len(caps)) // holds every index, so no send blocks
	for i := range caps {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < suiteWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cols[i] = experiments.NewSuiteCollectors()
				errs[i] = tr.do("experiments.replay", root, func() (err error) {
					brs[i], err = experiments.RunBenchReplay(ctx, caps[i], rc, cols[i])
					return err
				})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	all := experiments.NewSuiteCollectors()
	_ = tr.do("experiments.merge", root, func() error {
		for _, c := range cols {
			all.Merge(c)
		}
		return nil
	})
	res := &experiments.Results{Recoder: rc, Functs: functs, Bench: brs, Patterns: all.Patterns,
		Fetch: all.Fetch, Partitions: all.Partitions, Width64: all.Width64, Frontend: all.Frontend, BM: all.BM}
	var js []byte
	if err := tr.do("experiments.json_encode", root, func() (err error) {
		js, err = res.JSON()
		return err
	}); err != nil {
		return err
	}
	if d := digest(js); d != goldenDigest {
		return fmt.Errorf("traced suite JSON digest %s, want %s", d, goldenDigest)
	}
	return nil
}
