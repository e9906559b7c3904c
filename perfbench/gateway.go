package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
	"repro/internal/trace"
)

// shardNames are the stable names the gateway knows its two shards by.
// The ring hashes backend names, so fixed names pin which shard owns which
// benchmark; the shards' real loopback ports are resolved by the gateway
// client's dialer.
var shardNames = []string{"shard-a", "shard-b"}

// gatewayBatch is the number of requests that ask for each benchmark once
// (see subsetStream). One batch runs untimed, so every benchmark's capture
// file is mapped before timing starts, and the run then times whole
// batches.
const gatewayBatch = 4

// gatewayScatter is a scattered suite through siggate's gateway: two
// in-process shards serve every replay from SIGCAP02 files mapped from a
// shared trace directory, and one client asks for suites of three
// benchmarks drawn from the seed (see evenPartitions).
func gatewayScatter(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	if !cfg.trace {
		e, setup, err := setUp(cfg.setups, func() (*gatewayEnv, error) { return newGatewayEnv(ctx, nil) }, (*gatewayEnv).close)
		if err != nil {
			return nil, err
		}
		defer e.close()
		ss := newSubsetStream(cfg.seed, evenPartitions(cfg.gold, bench.Names()))
		s, cpu, mallocs := measure(o, gatewayBatch, gatewayBatch, cfg.dur, func() (uint64, error) {
			_, _, insts, err := e.suite(cfg.gold, ss.next())
			return insts, err
		})
		o.endToEnd(s, cpu, mallocs, setup)
		return o, nil
	}

	// Traced: half the run untraced, half traced, each on fresh shards.
	plain, err := newGatewayEnv(ctx, nil)
	if err != nil {
		return nil, err
	}
	ss := newSubsetStream(cfg.seed, evenPartitions(cfg.gold, bench.Names()))
	s, cpu, _ := measure(o, gatewayBatch, gatewayBatch, cfg.dur/2, func() (uint64, error) {
		_, _, _, err := plain.suite(cfg.gold, ss.next())
		return 0, err
	})
	plain.close()
	plainRate := float64(len(s.ms)) / cpu.Seconds()

	tr := newTracer()
	e, err := newGatewayEnv(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	shardURLs := []string{e.srvs[0].url(), e.srvs[1].url()}
	svcBefore, err := svcMetrics(e.client, shardURLs...)
	if err != nil {
		return nil, err
	}
	var gwBefore, gwAfter cluster.Snapshot
	if _, _, err := get(e.client, e.gatewayURL()+"/metrics", &gwBefore); err != nil {
		return nil, err
	}
	ss = newSubsetStream(cfg.seed, evenPartitions(cfg.gold, bench.Names()))
	var sizes []float64
	s, cpu, _ = measure(o, gatewayBatch, gatewayBatch, cfg.dur/2, func() (uint64, error) {
		id := tr.open("client.suite", 0)
		_, size, _, err := e.suite(cfg.gold, ss.next())
		tr.close(id, nil)
		if err == nil {
			sizes = append(sizes, float64(size)/1024)
		}
		return 0, err
	})
	svcAfter, err := svcMetrics(e.client, shardURLs...)
	if err != nil {
		return nil, err
	}
	if _, _, err := get(e.client, e.gatewayURL()+"/metrics", &gwAfter); err != nil {
		return nil, err
	}

	// One client means every shard partial inside a gateway span was
	// caused by that span's request.
	partials := tr.named("simsvc.partial")
	var self, partialMs []float64
	for _, g := range tr.named("cluster.gateway") {
		longest := 0.0
		for _, p := range partials {
			if p.Start >= g.Start && p.End > 0 && p.End <= g.End && p.dur() > longest {
				longest = p.dur()
			}
		}
		self = append(self, g.dur()-longest)
	}
	var obs []svcObs
	for _, p := range partials {
		// A hedged partial that lost may still be running, or was cut off:
		// it answered nothing.
		var r simsvc.Response
		if p.End == 0 || json.Unmarshal(p.Body, &r) != nil || r.Partial == nil {
			continue
		}
		partialMs = append(partialMs, p.dur())
		obs = append(obs, svcObs{latencyMs: p.dur(), elapsedMs: r.ElapsedMS, cached: r.Cached})
	}
	o.simsvcLayer(obs, svcBefore, svcAfter)
	o.layer("cluster.gateway_self_ms", median(self), "ms")
	o.layer("cluster.partial_p50_ms", median(partialMs), "ms")
	o.layer("cluster.response_kb", median(sizes), "KB")
	o.layer("cluster.failovers", float64(gwAfter.Failovers-gwBefore.Failovers), "count")
	o.layer("cluster.retries", float64(gwAfter.Retries-gwBefore.Retries), "count")
	o.layer("cluster.hedges", float64(gwAfter.Hedges-gwBefore.Hedges), "count")
	o.layer("tracing_coverage_share", coverage(tr.named("client.suite")), "share")
	o.layer("tracing_overhead_share", plainRate/(float64(len(s.ms))/cpu.Seconds())-1, "share")
	o.tracer = tr
	return o, nil
}

// gatewayEnv is a gateway over two shards that share one trace directory
// of SIGCAP02 captures of the suite.
type gatewayEnv struct {
	dir         string
	shards      []*simsvc.Service
	srvs        []*server // the shards' servers, then the gateway's
	gw          *cluster.Gateway
	client      *http.Client // the benchmark's client of the gateway
	shardClient *http.Client // the gateway's client of the shards
}

func newGatewayEnv(ctx context.Context, tr *tracer) (env *gatewayEnv, err error) {
	e := &gatewayEnv{client: &http.Client{Timeout: requestTimeout}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.dir, err = os.MkdirTemp("", "sigcap-"); err != nil {
		return nil, err
	}
	caps, err := experiments.CaptureSuite(ctx, bench.All(), suiteWorkers)
	if err != nil {
		return nil, err
	}
	for _, cp := range caps {
		if _, err := trace.WriteCaptureFile(e.dir, cp); err != nil {
			return nil, err
		}
	}
	addrs := make(map[string]string)
	backends := make([]string, len(shardNames))
	for i, name := range shardNames {
		// CacheSize 1: each request's partitions must reach the mapped
		// replay tier, not a cached answer from an earlier request.
		svc := simsvc.New(simsvc.Config{Workers: 1, TraceDir: e.dir, CacheSize: 1})
		e.shards = append(e.shards, svc)
		srv, err := startServer(tr.handler("simsvc.partial", "/v1/partial", true, simsvc.NewHandler(svc)))
		if err != nil {
			return nil, err
		}
		e.srvs = append(e.srvs, srv)
		addrs[name+":80"] = srv.ln.Addr().String()
		backends[i] = "http://" + name
	}
	// Each shard profiles the suite for its instruction recoder on its
	// first request; make that request here, on both shards at once.
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, svc := range e.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = svc.Simulate(ctx, simsvc.Request{Bench: caps[0].Bench().Name, Model: pipeline.NameBaseline32})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var dialer net.Dialer
	e.shardClient = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	// Hedging is off: partitions with the largest benchmarks take about
	// the default 2 s hedge delay, so whether a hedge fired, doubling that
	// partition's work, would flip from run to run. Hedges belong to the
	// fault-tolerance path, which the cluster tests cover.
	if e.gw, err = cluster.New(cluster.Config{Backends: backends, Client: e.shardClient, HedgeAfter: -1}); err != nil {
		return nil, err
	}
	srv, err := startServer(tr.handler("cluster.gateway", "/v1/suite", false, cluster.NewHandler(e.gw)))
	if err != nil {
		return nil, err
	}
	e.srvs = append(e.srvs, srv)
	var catalog []json.RawMessage // the gateway loads the fleet's catalog once
	if _, _, err := get(e.client, e.gatewayURL()+"/v1/benchmarks", &catalog); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *gatewayEnv) gatewayURL() string { return e.srvs[len(e.srvs)-1].url() }

// suite asks the gateway for the suite of names and checks every row of
// the answer. It returns the latency, the response size and the
// instructions simulated.
func (e *gatewayEnv) suite(gold *golden, names []string) (float64, int, uint64, error) {
	var r simsvc.Response
	ms, size, err := get(e.client, e.gatewayURL()+"/v1/suite?bench="+url.QueryEscape(strings.Join(names, ",")), &r)
	if err != nil {
		return 0, 0, 0, err
	}
	if r.Suite == nil || len(r.Suite.Benchmarks) != len(names) {
		return 0, 0, 0, fmt.Errorf("suite %v: answer lacks its rows", names)
	}
	var insts uint64
	for i, b := range r.Suite.Benchmarks {
		if b.Name != names[i] {
			return 0, 0, 0, fmt.Errorf("suite %v: row %d is %s", names, i, b.Name)
		}
		if err := gold.checkRow(b); err != nil {
			return 0, 0, 0, err
		}
		insts += b.Insts
	}
	if insts != r.Insts {
		return 0, 0, 0, fmt.Errorf("suite %v: %d instructions, rows sum to %d", names, r.Insts, insts)
	}
	return ms, size, insts, nil
}

func (e *gatewayEnv) close() {
	for i := len(e.srvs) - 1; i >= 0; i-- {
		e.srvs[i].stop()
	}
	if e.gw != nil {
		e.gw.Close()
	}
	for _, svc := range e.shards {
		svc.Close()
	}
	e.client.CloseIdleConnections()
	if e.shardClient != nil {
		e.shardClient.CloseIdleConnections()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // a leftover capture directory is only litter in the build dir
	}
}
