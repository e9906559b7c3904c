// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public packages, checks every output
// against a committed reference, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of standard
// output. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory says what each one measures.
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is what a workload run is given.
type config struct {
	seed   int64
	dur    time.Duration
	trace  bool
	setups int // set-ups per run; setup_s is their median (suite-cold, whose set-up is short, makes more)
	gold   *golden
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"suite-cold":      suiteCold,
	"serve-warm":      serveWarm,
	"gateway-scatter": gatewayScatter,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// One P: the time metrics are CPU time, and with a single P no thread
	// spins looking for work between the client's and the server's
	// goroutines, so a request's CPU time is the work it does. Workers
	// still run concurrently, interleaved.
	runtime.GOMAXPROCS(1)
	if len(args) == 1 && args[0] == setupProbeFlag {
		fmt.Fprintln(stdout, timeSetup())
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-cold, serve-warm or gateway-scatter")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	spread := fs.Int("spread", 0, "run the workload this many times with seeds 1..N and print each metric's quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload suite-cold|serve-warm|gateway-scatter, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *spread > 0 {
		return spreadRuns(*spread, *name, *seconds, *traceFlag, stdout, stderr)
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1, setups: 3, gold: gold}
	o, err := fn(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		o.addLayerMicro(context.Background(), gold)
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d\n", *name, *seed, *seconds, *traceFlag)
	if m, err := json.Marshal(collectMeta(".")); err == nil {
		fmt.Fprintf(stdout, "meta %s\n", m)
	}
	if o.tracer != nil {
		path := filepath.Join(os.TempDir(), fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := o.tracer.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintf(stdout, "spans %s\n", path)
		}
	}
	if err := o.print(stdout, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured.
type outcome struct {
	mu       sync.Mutex
	sent     int
	failed   int
	timed    int // requests in the timed region, the samples of the percentiles
	e2e      map[string]metric
	layers   map[string]metric
	tracer   *tracer
	errShown int
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]metric), layers: make(map[string]metric)}
}

// count tallies one attempted request or run; err marks it failed.
func (o *outcome) count(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sent++
	if err != nil {
		o.failed++
		if o.errShown < 5 {
			o.errShown++
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
	}
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.layers[name] = metric{v, unit}
}

// samples are the per-request CPU times and the simulated instructions of
// the requests of one timed region. A failed request is an infinite time:
// it misses every limit.
type samples struct {
	ms    []float64
	insts uint64
}

// measure runs do closed-loop from one client: warm requests untimed, so
// the caches reach the state they keep for the rest of the run, then
// requests for dur, in whole batches of batch requests (at least one
// batch). A workload whose inputs repeat their mix every batch requests
// thus times the same mix on every seed. It returns the samples of the timed
// requests, the CPU time of the timed region and the Go heap allocations
// made in it. do returns the instructions its request simulated and
// whether its output was right. With one request in flight, a request's
// sample is all the CPU time the process spent while it ran: client,
// server, simulation and garbage collection.
func measure(o *outcome, warm, batch int, dur time.Duration, do func() (uint64, error)) (*samples, time.Duration, uint64) {
	for i := 0; i < warm; i++ {
		_, err := do()
		o.count(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := &samples{}
	start := cpuNow()
	deadline := time.Now().Add(dur)
	for n := 0; n < batch || n%batch != 0 || time.Now().Before(deadline); n++ {
		c := cpuNow()
		insts, err := do()
		ms := cpuMsSince(c)
		o.count(err)
		if err != nil {
			ms, insts = math.Inf(1), 0
		}
		s.ms = append(s.ms, ms)
		s.insts += insts
	}
	cpu := cpuNow() - start
	runtime.ReadMemStats(&after)
	return s, cpu, after.Mallocs - before.Mallocs
}

// endToEnd derives the end-to-end metrics from one timed region that used
// cpu of CPU time and the set-up CPU times in seconds.
func (o *outcome) endToEnd(s *samples, cpu time.Duration, mallocs uint64, setup []float64) {
	ok := 0
	for _, ms := range s.ms {
		if !math.IsInf(ms, 1) {
			ok++
		}
	}
	perRequest := func(p float64) float64 {
		v := percentile(s.ms, p)
		if math.IsInf(v, 1) {
			// A failed request's stand-in: it took at least the whole run.
			v = float64(cpu) / 1e6
		}
		return v
	}
	allocs := 0.0
	if s.insts > 0 {
		allocs = float64(mallocs) / float64(s.insts)
	}
	o.timed = len(s.ms)
	o.e2e["minst_per_cpu_s"] = metric{float64(s.insts) / cpu.Seconds() / 1e6, "Minst/s"}
	o.e2e["requests_per_cpu_s"] = metric{float64(ok) / cpu.Seconds(), "1/s"}
	o.e2e["cpu_ms_p50"] = metric{perRequest(50), "ms"}
	o.e2e["cpu_ms_p99"] = metric{perRequest(99), "ms"}
	o.e2e["allocs_per_inst"] = metric{allocs, "allocs/inst"}
	o.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	o.e2e["setup_s"] = metric{median(setup), "s"}
}

// print writes the human-readable lines and, last, the result object.
func (o *outcome) print(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "requests sent %d  succeeded %d  failed %d\n", o.sent, o.sent-o.failed, o.failed)
	if !traced {
		fmt.Fprintf(w, "requests timed %d\n", o.timed)
	}
	metrics := o.e2e
	if traced {
		metrics = o.layers
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if !traced {
		// error_share is printed with the others but kept out of the result
		// object, whose metrics must never read 0: the result's attempted
		// and failed carry the same figure.
		share := 0.0
		if o.sent > 0 {
			share = float64(o.failed) / float64(o.sent)
		}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", "error_share", share, "share")
	}
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.sent > 0 && o.failed == 0, o.sent, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
