package simsvc

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/icomp"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

func mustTestBench(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// mustJSON marshals v for a byte-for-byte comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// responseJSON renders r without its per-request envelope fields (elapsed
// time, cache flag), so replayed and live answers compare byte for byte.
func responseJSON(t *testing.T, r *Response) string {
	t.Helper()
	c := *r
	c.ElapsedMS, c.Cached = 0, false
	return mustJSON(t, &c)
}

// liveResults runs each named benchmark through the live interpreter
// (experiments.RunBenchCtx: every model and collector), under the recoder a
// service serving exactly these benchmarks profiles. It is the reference
// the replaying service is compared against.
func liveResults(t *testing.T, names ...string) map[string]experiments.BenchResult {
	t.Helper()
	var suite []bench.Benchmark
	for _, n := range names {
		suite = append(suite, mustTestBench(t, n))
	}
	rc, _, err := trace.SuiteRecoder(suite)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]experiments.BenchResult, len(suite))
	for _, b := range suite {
		br, err := experiments.RunBenchCtx(context.Background(), b, rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[b.Name] = br
	}
	return out
}

// liveJob is the Response a per-model job must produce, read off a live
// full evaluation of its benchmark.
func liveJob(br experiments.BenchResult, req Request) *Response {
	gran, act := 1, br.ByteAct
	if req.Gran == 2 {
		gran, act = 2, br.HalfAct
	}
	stalls := make(map[string]uint64)
	for k, v := range br.Stalls[req.Model] {
		stalls[string(k)] = v
	}
	cpi := br.CPI[req.Model]
	return &Response{
		Bench:       br.Name,
		Model:       req.Model,
		Granularity: gran,
		Insts:       br.Insts,
		// CPI is cycles/insts, so the product rounds back to the cycles.
		Cycles:   uint64(math.Round(cpi * float64(br.Insts))),
		CPI:      cpi,
		Stalls:   stalls,
		Activity: experiments.SavingMap(act),
	}
}

// liveSuiteJSON is the live reference for a service's suite over exactly
// these benchmarks: the encoded document and its instruction total.
func liveSuiteJSON(t *testing.T, names ...string) (string, uint64) {
	t.Helper()
	var suite []bench.Benchmark
	for _, n := range names {
		suite = append(suite, mustTestBench(t, n))
	}
	res, err := experiments.RunSuiteLive(context.Background(), suite, 2)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, res.Encode()), res.Insts()
}

// churnRecoders builds n recoders with distinct profiles (rotations of the
// default top-funct list), simulating a fleet of requests that each arrive
// with their own recoding.
func churnRecoders(n int) []*icomp.Recoder {
	base := icomp.DefaultTopFuncts()
	out := make([]*icomp.Recoder, n)
	for i := range out {
		rot := make([]isa.Funct, len(base))
		for j := range base {
			rot[j] = base[(j+i)%len(base)]
		}
		out[i] = icomp.MustNewRecoder(rot)
	}
	return out
}

// TestTraceCacheRefreshUnderRecoderChurn pins the accounting fix: replaying
// a cached capture under new recoder profiles grows its fetch-size memo,
// and refresh must fold that growth back into the LRU's byte ledger — and
// evict when the growth breaks the budget — instead of letting the cache
// drift over budget unaccounted.
func TestTraceCacheRefreshUnderRecoderChurn(t *testing.T) {
	ctx := context.Background()
	cp, err := trace.CaptureRun(ctx, mustTestBench(t, "dijkstra"))
	if err != nil {
		t.Fatal(err)
	}
	// Measure one memo's growth first, so the budget can fit the next
	// memo but not the two after it.
	rcs := churnRecoders(4)
	unreplayed := int64(cp.SizeBytes())
	if err := cp.ReplayBlocks(ctx, rcs[0], pipeline.NewBaseline32()); err != nil {
		t.Fatal(err)
	}
	e := &traceEntry{rep: cp, bytes: int64(cp.SizeBytes())}
	base := e.bytes
	perMemo := base - unreplayed
	if perMemo <= 0 {
		t.Fatalf("capture did not grow under a new recoder profile: %d -> %d bytes", unreplayed, base)
	}

	var m Metrics
	budget := base + perMemo + perMemo/2
	c := newTraceCache(budget, &m)
	if ev, _ := c.add("dijkstra", e); len(ev) != 0 {
		t.Fatalf("admission evicted %d entries", len(ev))
	}
	if c.bytesUsed() != base {
		t.Fatalf("accounted %d bytes, want %d", c.bytesUsed(), base)
	}

	// One more profile: the capture grows but still fits. refresh must
	// re-account without evicting.
	if err := cp.ReplayBlocks(ctx, rcs[1], pipeline.NewBaseline32()); err != nil {
		t.Fatal(err)
	}
	grown := int64(cp.SizeBytes())
	if grown != base+perMemo {
		t.Fatalf("second profile grew the capture to %d bytes, want %d", grown, base+perMemo)
	}
	if ev := c.refresh("dijkstra"); len(ev) != 0 {
		t.Fatalf("in-budget refresh evicted %d entries", len(ev))
	}
	if c.bytesUsed() != grown || m.traceCacheBytes.Load() != grown {
		t.Fatalf("refresh accounted %d bytes (gauge %d), want %d",
			c.bytesUsed(), m.traceCacheBytes.Load(), grown)
	}

	// Two more profiles (the memo holds up to maxIFBMemos) break the
	// budget, so refresh must evict the entry.
	for _, rc := range rcs[2:] {
		if err := cp.ReplayBlocks(ctx, rc, pipeline.NewBaseline32()); err != nil {
			t.Fatal(err)
		}
	}
	if size := int64(cp.SizeBytes()); size <= budget {
		t.Fatalf("four profiles grew the capture to %d bytes, not past the %d-byte budget", size, budget)
	}
	ev := c.refresh("dijkstra")
	if len(ev) != 1 || ev[0].key != "dijkstra" {
		t.Fatalf("over-budget refresh evicted %v, want the grown entry", ev)
	}
	if c.len() != 0 || c.bytesUsed() != 0 {
		t.Fatalf("after eviction: %d entries, %d bytes", c.len(), c.bytesUsed())
	}
	// A refresh for a key that is no longer cached is a no-op.
	if ev := c.refresh("dijkstra"); ev != nil {
		t.Fatalf("refresh of evicted key returned %v", ev)
	}
}

// TestTraceDirSpillAndReload drives the full demote/promote cycle through
// the service: captures persist to the trace dir, an evicted benchmark
// reloads from disk instead of re-interpreting, and the reloaded capture's
// responses are byte-identical to the live path.
func TestTraceDirSpillAndReload(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// 2 MB holds one ~1.4 MB capture at a time, so the two benchmarks
	// evict each other.
	s := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")

	req1 := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial}
	req2 := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}

	if _, err := s.Simulate(ctx, req1); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadCaptureFile(trace.CaptureFilePath(dir, "dijkstra")); err != nil {
		t.Fatalf("capture was not persisted on first touch: %v", err)
	}
	if _, err := s.Simulate(ctx, req2); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics().Snapshot()
	if m.TraceSpills != 2 {
		t.Fatalf("spills = %d, want 2 (write-through on each capture)", m.TraceSpills)
	}
	if m.TraceCacheEvict != 1 {
		t.Fatalf("evictions = %d, want 1", m.TraceCacheEvict)
	}

	// dijkstra was evicted; touching it again must reload the spilled
	// capture, not re-interpret. A different model defeats the result LRU.
	req1b := Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}
	got, err := s.Simulate(ctx, req1b)
	if err != nil {
		t.Fatal(err)
	}
	m = s.Metrics().Snapshot()
	if m.TraceSpillLoads != 1 {
		t.Fatalf("spill loads = %d, want 1", m.TraceSpillLoads)
	}
	if m.Captures != 2 {
		t.Fatalf("captures = %d, want 2 (reload must not re-interpret)", m.Captures)
	}

	// The reloaded capture must serve byte-identical responses.
	want := liveJob(liveResults(t, "dijkstra", "g711dec")["dijkstra"], req1b)
	if responseJSON(t, got) != responseJSON(t, want) {
		t.Fatalf("reloaded capture diverges from live path:\nreplay: %s\nlive:   %s", responseJSON(t, got), responseJSON(t, want))
	}
}

// TestTraceDirWarmStart checks the sharding story: a second service sharing
// the first one's trace dir serves its first request from disk without a
// single interpreter run.
func TestTraceDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}

	s1 := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
	first, err := s1.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if m := s1.Metrics().Snapshot(); m.Captures != 1 || m.TraceSpills != 1 {
		t.Fatalf("shard 1: captures=%d spills=%d, want 1/1", m.Captures, m.TraceSpills)
	}

	s2 := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
	second, err := s2.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	m := s2.Metrics().Snapshot()
	if m.Captures != 0 {
		t.Fatalf("warm shard ran %d interpreter captures, want 0", m.Captures)
	}
	if m.TraceSpillLoads != 1 {
		t.Fatalf("warm shard spill loads = %d, want 1", m.TraceSpillLoads)
	}
	if first.CPI != second.CPI || first.Cycles != second.Cycles || first.Insts != second.Insts {
		t.Fatalf("warm shard diverged: %+v vs %+v", second, first)
	}
}

// TestTraceDirCorruptFileDegrades puts an unusable file where a capture
// should be — garbage, or a file from the retired SIGCAP01 format. The
// service must fall back to interpreting, not fail or serve junk, and its
// fresh capture must replace the file: a restarted service on the same dir
// then starts warm from it.
func TestTraceDirCorruptFileDegrades(t *testing.T) {
	ctx := context.Background()
	req := Request{Bench: "g711dec", Model: pipeline.NameByteSerial}
	for label, junk := range map[string][]byte{
		"garbage":  []byte("not a capture"),
		"SIGCAP01": append([]byte("SIGCAP01\x07g711dec"), make([]byte, 64)...),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(trace.CaptureFilePath(dir, "g711dec"), junk, 0o644); err != nil {
			t.Fatal(err)
		}
		s := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
		first, err := s.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		m := s.Metrics().Snapshot()
		if m.Captures != 1 {
			t.Fatalf("%s: captures = %d, want 1 (corrupt file must force re-interpretation)", label, m.Captures)
		}
		if m.TraceSpillLoads != 0 || m.TraceSpills != 1 {
			t.Fatalf("%s: spill loads = %d, spills = %d, want 0/1 (the capture replaces the file)",
				label, m.TraceSpillLoads, m.TraceSpills)
		}

		restarted := testService(t, Config{Workers: 2, TraceDir: dir}, "g711dec")
		again, err := restarted.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("%s: restarted: %v", label, err)
		}
		if m := restarted.Metrics().Snapshot(); m.Captures != 0 || m.TraceMapLoads != 1 {
			t.Fatalf("%s: restarted service captures = %d, map loads = %d, want 0/1",
				label, m.Captures, m.TraceMapLoads)
		}
		if again.Cycles != first.Cycles || again.Insts != first.Insts {
			t.Fatalf("%s: restarted service diverged: %+v vs %+v", label, again, first)
		}
	}
}

// TestTraceDirTruncatedMidReplay truncates a capture file while a service
// holds it mapped, so the next replay touches pages that no longer exist.
// Both replay sites — a simulate request and the suite — must answer
// correctly (the fault becomes a *CorruptError, the entry is dropped, and
// the one retry re-interprets), the process must survive, and the rewritten
// file must warm-start a restarted service.
func TestTraceDirTruncatedMidReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b := mustTestBench(t, "dijkstra")
	cp, err := trace.CaptureRun(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatal(err)
	}
	warmReq := Request{Bench: "dijkstra", Model: pipeline.NameBaseline32}
	req := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial}

	// mapAndTruncate starts a service on dir, maps the capture with a
	// first request, then truncates the file under the mapping.
	mapAndTruncate := func() *Service {
		s := testService(t, Config{Workers: 2, TraceDir: dir}, "dijkstra")
		if _, err := s.Simulate(ctx, warmReq); err != nil {
			t.Fatal(err)
		}
		if m := s.Metrics().Snapshot(); m.Captures != 0 || m.TraceMapLoads != 1 {
			t.Fatalf("captures = %d, map loads = %d, want 0/1", m.Captures, m.TraceMapLoads)
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := mapAndTruncate()
	got, err := s.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate after truncation: %v", err)
	}
	want := liveJob(liveResults(t, "dijkstra")["dijkstra"], req)
	if responseJSON(t, got) != responseJSON(t, want) {
		t.Fatalf("simulate after truncation diverges:\ngot:  %s\nwant: %s", responseJSON(t, got), responseJSON(t, want))
	}
	if m := s.Metrics().Snapshot(); m.Captures != 1 || m.TraceSpills != 1 {
		t.Fatalf("after truncation: captures = %d, spills = %d, want 1/1", m.Captures, m.TraceSpills)
	}

	s = mapAndTruncate() // warm from the rewritten file, then truncate again
	suite, err := s.Suite(ctx)
	if err != nil {
		t.Fatalf("suite after truncation: %v", err)
	}
	if liveJSON, _ := liveSuiteJSON(t, "dijkstra"); mustJSON(t, suite.Suite) != liveJSON {
		t.Fatal("suite after truncation diverges from the live path")
	}

	restarted := testService(t, Config{Workers: 2, TraceDir: dir}, "dijkstra")
	if _, err := restarted.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	if m := restarted.Metrics().Snapshot(); m.Captures != 0 || m.TraceMapLoads != 1 {
		t.Fatalf("restarted service captures = %d, map loads = %d, want 0/1", m.Captures, m.TraceMapLoads)
	}
}

// TestTraceDirMappedTier pins the mapped residency tier: a shard warm-started
// from another shard's SIGCAP02 spills maps the files instead of decoding
// them, so (a) no interpreter runs, (b) every load is a map load, (c) both
// benchmarks fit a budget that forced the cold shard to evict — a mapped
// entry is accounted at roughly index + one frame buffer, not the decoded
// columns — and (d) the responses stay byte-identical to the cold shard's.
func TestTraceDirMappedTier(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req1 := Request{Bench: "dijkstra", Model: pipeline.NameByteSerial, Gran: 1}
	req2 := Request{Bench: "g711dec", Model: pipeline.NameByteSerial, Gran: 1}

	// Cold shard: interprets and spills; the 2 MB budget holds only one
	// decoded (~1.4 MB) capture at a time, so the second bench evicts the
	// first.
	cold := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")
	w1, err := cold.Simulate(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cold.Simulate(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.TraceMappedEntries(); n != 0 {
		t.Fatalf("cold shard reports %d mapped entries, want 0 (captures are resident)", n)
	}
	if m := cold.Metrics().Snapshot(); m.TraceCacheEvict != 1 {
		t.Fatalf("cold shard evictions = %d, want 1 (budget fits one decoded capture)", m.TraceCacheEvict)
	}
	coldBytes := cold.TraceCacheBytes() // one resident capture

	// Warm shard sharing the dir under the same budget: both entries are
	// mapped, nothing is interpreted, nothing is evicted.
	warm := testService(t, Config{Workers: 2, TraceCacheMB: 2, TraceDir: dir}, "dijkstra", "g711dec")
	g1, err := warm.Simulate(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := warm.Simulate(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	m := warm.Metrics().Snapshot()
	if m.Captures != 0 {
		t.Fatalf("warm shard ran %d interpreter captures, want 0", m.Captures)
	}
	if m.TraceSpillLoads != 2 || m.TraceMapLoads != 2 {
		t.Fatalf("warm shard loads: spill=%d map=%d, want 2/2", m.TraceSpillLoads, m.TraceMapLoads)
	}
	if n := warm.TraceMappedEntries(); n != 2 {
		t.Fatalf("warm shard mapped entries = %d, want 2", n)
	}
	if m.TraceCacheEvict != 0 {
		t.Fatalf("warm shard evicted %d entries; both mapped entries must fit the budget", m.TraceCacheEvict)
	}
	if wb := warm.TraceCacheBytes(); wb >= coldBytes/4 {
		t.Fatalf("two mapped entries account %d bytes, one resident capture %d: mapped tier is not cheap",
			wb, coldBytes)
	}
	if responseJSON(t, g1) != responseJSON(t, w1) || responseJSON(t, g2) != responseJSON(t, w2) {
		t.Fatalf("mapped replay diverges from resident replay:\nmapped:   %s\nresident: %s",
			responseJSON(t, g1), responseJSON(t, w1))
	}
}
