package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/bmgating"
	"repro/internal/experiments"
	"repro/internal/icomp"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// layerBench is the fixed input of the per-layer measurements, the same
// benchmark on every workload so that layer rows compare across runs.
const layerBench = "dijkstra"

// layerReps is how many times each layer call is timed; rows are medians.
const layerReps = 5

// workloadLayers are the per-layer metrics a workload's own traced pass
// sets. A workload whose requests do not pass through a layer reports 0
// for it: that layer did no work there.
var workloadLayers = []metricDef{
	{"simsvc.result_hit_ratio", "share", "higher"},
	{"simsvc.hit_p50_ms", "ms", "lower"},
	{"simsvc.miss_p50_ms", "ms", "lower"},
	{"simsvc.exec_p50_ms", "ms", "lower"},
	{"simsvc.overhead_p50_ms", "ms", "lower"},
	{"simsvc.trace_hit_ratio", "share", "higher"},
	{"simsvc.captures", "count", "lower"},
	{"simsvc.map_loads", "count", "lower"},
	{"simsvc.shed", "count", "lower"},
	{"simsvc.retries", "count", "lower"},
	{"cluster.gateway_self_ms", "ms", "lower"},
	{"cluster.partial_p50_ms", "ms", "lower"},
	{"cluster.response_kb", "KB", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"tracing_coverage_share", "share", "higher"},
	{"tracing_overhead_share", "share", "lower"},
}

type metricDef struct{ name, unit, better string }

// modelNames are the pipeline models timed one by one: the registry and
// the three branch-prediction variants the full evaluation adds.
func modelNames() []string {
	return append(pipeline.AllNames(), pipeline.NameBaseline32+"+bp", pipeline.NameByteSerial+"+bp", pipeline.NameParallelSkewedBypass+"+bp")
}

func newModel(name string) *pipeline.Model {
	if base, ok := strings.CutSuffix(name, "+bp"); ok {
		return pipeline.NewPredicted(base)
	}
	return pipeline.New(name)
}

// collectors are the activity and gating collectors timed one by one,
// each built over the memory image its replay applies stores to.
var collectors = []struct {
	name string
	make func(rc *icomp.Recoder, m *mem.Memory) trace.Consumer
}{
	{"activity.collector_byte", func(rc *icomp.Recoder, m *mem.Memory) trace.Consumer { return activity.NewCollector(1, rc, m) }},
	{"activity.collector_half", func(rc *icomp.Recoder, m *mem.Memory) trace.Consumer { return activity.NewCollector(2, rc, m) }},
	{"activity.collector_scheme2", func(rc *icomp.Recoder, m *mem.Memory) trace.Consumer {
		return activity.NewCollectorScheme(1, activity.Scheme2, rc, m)
	}},
	{"activity.patterns", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return activity.NewPatternStats() }},
	{"activity.fetch", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return &activity.FetchStats{} }},
	{"activity.partitions", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return activity.NewPartitionStats() }},
	{"activity.width64", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return activity.NewWidth64Stats() }},
	{"activity.frontend", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return activity.NewFrontendStats() }},
	{"bmgating.collector", func(*icomp.Recoder, *mem.Memory) trace.Consumer { return bmgating.NewCollector() }},
}

// layerDefs lists every per-layer metric, in the order of BENCHMARK.json.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"cpu.interpret_ns_per_inst", "ns/inst", "lower"},
		{"trace.capture_ns_per_inst", "ns/inst", "lower"},
		{"trace.capture_allocs_per_inst", "allocs/inst", "lower"},
		{"trace.capture_bytes_per_inst", "B/inst", "lower"},
		{"trace.sigcap02_encode_ns_per_inst", "ns/inst", "lower"},
		{"trace.sigcap02_bytes_per_inst", "B/inst", "lower"},
		{"trace.sigcap02_decode_ns_per_inst", "ns/inst", "lower"},
		{"trace.mapped_open_us", "us", "lower"},
		{"trace.replay_mapped_ns_per_inst", "ns/inst", "lower"},
		{"trace.replay_resident_ns_per_inst", "ns/inst", "lower"},
	}
	for _, m := range modelNames() {
		defs = append(defs, metricDef{"pipeline." + metricName(m) + ".ns_per_inst", "ns/inst", "lower"})
	}
	defs = append(defs, metricDef{"pipeline.allocs_per_inst", "allocs/inst", "lower"})
	for _, c := range collectors {
		defs = append(defs, metricDef{c.name + ".ns_per_inst", "ns/inst", "lower"}, metricDef{c.name + ".allocs_per_inst", "allocs/inst", "lower"})
	}
	defs = append(defs,
		metricDef{"experiments.run_bench_replay_ns_per_inst", "ns/inst", "lower"},
		metricDef{"experiments.merge_ms", "ms", "lower"},
		metricDef{"experiments.json_encode_ms", "ms", "lower"},
		metricDef{"experiments.partial_state_ms", "ms", "lower"},
		metricDef{"experiments.merge_partials_ms", "ms", "lower"},
		metricDef{"icomp.suite_recoder_ms", "ms", "lower"},
	)
	return append(defs, workloadLayers...)
}

// metricName spells a model name as a metric name component.
func metricName(model string) string { return strings.ReplaceAll(model, "+", "_") }

// cost is the median time and allocation count of one timed call.
type cost struct {
	ns, allocs, bytes float64
}

// timeCall times run reps times, each after a fresh prepare outside the
// timed region, and returns the medians.
func timeCall(reps int, prepare func() (func() error, error)) (cost, error) {
	var ns, allocs, bytes []float64
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		run, err := prepare()
		if err != nil {
			return cost{}, err
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err = run()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return cost{}, err
		}
		ns = append(ns, float64(d))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return cost{median(ns), median(allocs), median(bytes)}, nil
}

// ready wraps a run that needs no preparation.
func ready(run func() error) func() (func() error, error) {
	return func() (func() error, error) { return run, nil }
}

// addLayerMicro times each layer's public calls on layerBench, checking
// their outputs against the reference (a wrong output is a failed
// attempt), and fills every per-layer metric still unset with 0.
func (o *outcome) addLayerMicro(ctx context.Context, gold *golden) {
	o.count(o.layerMicro(ctx, gold))
	for _, d := range layerDefs() {
		if _, ok := o.layers[d.name]; !ok {
			o.layer(d.name, 0, d.unit)
		}
	}
}

func (o *outcome) layerMicro(ctx context.Context, gold *golden) error {
	b, ok := bench.ByName(layerBench)
	if !ok {
		return fmt.Errorf("no benchmark %s", layerBench)
	}
	want := gold.rows[layerBench]
	var rc *icomp.Recoder
	c, err := timeCall(1, ready(func() (err error) {
		rc, _, err = trace.SuiteRecoder(bench.All())
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("icomp.suite_recoder_ms", c.ns/1e6, "ms")

	var retired uint64
	c, err = timeCall(layerReps, func() (func() error, error) {
		cpu, err := b.NewCPU()
		return func() (err error) {
			retired, err = cpu.Run(b.MaxInsts)
			return err
		}, err
	})
	if err != nil {
		return err
	}
	if retired != want.Insts {
		return fmt.Errorf("cpu: %s retired %d instructions, want %d", layerBench, retired, want.Insts)
	}
	insts := float64(want.Insts)
	o.layer("cpu.interpret_ns_per_inst", c.ns/insts, "ns/inst")

	var cp *trace.Capture
	c, err = timeCall(layerReps, ready(func() (err error) {
		cp, err = trace.CaptureRun(ctx, b)
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("trace.capture_ns_per_inst", c.ns/insts, "ns/inst")
	o.layer("trace.capture_allocs_per_inst", c.allocs/insts, "allocs/inst")
	o.layer("trace.capture_bytes_per_inst", c.bytes/insts, "B/inst")

	var file bytes.Buffer
	c, err = timeCall(layerReps, ready(func() error {
		file.Reset()
		_, err := cp.WriteTo2(&file)
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("trace.sigcap02_encode_ns_per_inst", c.ns/insts, "ns/inst")
	o.layer("trace.sigcap02_bytes_per_inst", float64(file.Len())/insts, "B/inst")

	dir, err := os.MkdirTemp("", "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		return err
	}
	c, err = timeCall(layerReps, ready(func() error {
		dec, err := trace.ReadCaptureFile(path)
		if err == nil && dec.Len() != cp.Len() {
			err = fmt.Errorf("trace: decoded %d rows, want %d", dec.Len(), cp.Len())
		}
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("trace.sigcap02_decode_ns_per_inst", c.ns/insts, "ns/inst")
	c, err = timeCall(layerReps, ready(func() error {
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			return err
		}
		return mc.Close()
	}))
	if err != nil {
		return err
	}
	o.layer("trace.mapped_open_us", c.ns/1e3, "us")

	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		return err
	}
	defer mc.Close()
	for _, r := range []struct {
		name string
		rep  trace.Replayer
	}{{"trace.replay_mapped_ns_per_inst", mc}, {"trace.replay_resident_ns_per_inst", cp}} {
		var n uint64
		counter := trace.ConsumerFunc(func(trace.Event) { n++ })
		c, err = timeCall(layerReps, ready(func() error {
			n = 0
			return r.rep.ReplayBlocks(ctx, rc, counter)
		}))
		if err != nil {
			return err
		}
		if n != want.Insts {
			return fmt.Errorf("%s: replayed %d events, want %d", r.name, n, want.Insts)
		}
		o.layer(r.name, c.ns/insts, "ns/inst")
	}

	var modelAllocs float64
	for _, name := range modelNames() {
		var m *pipeline.Model
		c, err = timeCall(layerReps, func() (func() error, error) {
			m = newModel(name)
			return func() error { return cp.ReplayBlocks(ctx, rc, m) }, nil
		})
		if err != nil {
			return err
		}
		if cpi := m.Result().CPI(); cpi != want.CPI[name] {
			return fmt.Errorf("pipeline %s: CPI %v on %s, want %v", name, cpi, layerBench, want.CPI[name])
		}
		o.layer("pipeline."+metricName(name)+".ns_per_inst", c.ns/insts, "ns/inst")
		modelAllocs += c.allocs
	}
	o.layer("pipeline.allocs_per_inst", modelAllocs/float64(len(modelNames()))/insts, "allocs/inst")

	wantSaving := map[string]map[string]float64{"activity.collector_byte": want.ByteSaving, "activity.collector_half": want.HalfSaving}
	for _, col := range collectors {
		var con trace.Consumer
		c, err = timeCall(layerReps, func() (func() error, error) {
			m, err := cp.NewMemory()
			con = col.make(rc, m)
			return func() error { return cp.ReplayBlocksOn(ctx, m, rc, con) }, err
		})
		if err != nil {
			return err
		}
		if ws, ok := wantSaving[col.name]; ok && !reflect.DeepEqual(experiments.SavingMap(con.(*activity.Collector).Counts()), ws) {
			return fmt.Errorf("%s: savings on %s differ from the reference", col.name, layerBench)
		}
		o.layer(col.name+".ns_per_inst", c.ns/insts, "ns/inst")
		o.layer(col.name+".allocs_per_inst", c.allocs/insts, "allocs/inst")
	}

	var br experiments.BenchResult
	var sc *experiments.SuiteCollectors
	c, err = timeCall(layerReps, ready(func() (err error) {
		sc = experiments.NewSuiteCollectors()
		br, err = experiments.RunBenchReplay(ctx, cp, rc, sc)
		return err
	}))
	if err != nil {
		return err
	}
	row := experiments.EncodeBench(br)
	if err := gold.checkRow(row); err != nil {
		return fmt.Errorf("experiments.RunBenchReplay: %w", err)
	}
	o.layer("experiments.run_bench_replay_ns_per_inst", c.ns/insts, "ns/inst")
	c, err = timeCall(layerReps, ready(func() error {
		experiments.NewSuiteCollectors().Merge(sc)
		return nil
	}))
	if err != nil {
		return err
	}
	o.layer("experiments.merge_ms", c.ns/1e6, "ms")
	functs := cp.FunctCounts()
	res := &experiments.Results{Recoder: rc, Functs: functs, Bench: []experiments.BenchResult{br}, Patterns: sc.Patterns,
		Fetch: sc.Fetch, Partitions: sc.Partitions, Width64: sc.Width64, Frontend: sc.Frontend, BM: sc.BM}
	c, err = timeCall(layerReps, ready(func() error {
		_, err := res.JSON()
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("experiments.json_encode_ms", c.ns/1e6, "ms")
	var state experiments.CollectorsState
	c, err = timeCall(layerReps, ready(func() error {
		state = sc.State()
		return nil
	}))
	if err != nil {
		return err
	}
	o.layer("experiments.partial_state_ms", c.ns/1e6, "ms")
	part := &experiments.PartialSuite{Benchmarks: []experiments.BenchJSON{row}, Functs: experiments.EncodeFuncts(functs, rc), Collectors: state}
	c, err = timeCall(layerReps, ready(func() error {
		_, _, err := experiments.MergePartials([]string{layerBench}, []*experiments.PartialSuite{part})
		return err
	}))
	if err != nil {
		return err
	}
	o.layer("experiments.merge_partials_ms", c.ns/1e6, "ms")
	return nil
}
