package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// serveWorkers sizes the service for a 2-core host. One closed-loop
// client, a script that waits for each reply, drives it (see measure). An
// untimed epoch of keys (see keyStream) first fills the result cache to
// the mix of hits and misses it keeps, and the run then times whole
// epochs.
const serveWorkers = 2

// serveWarm is the service client's path: GET /v1/simulate against a
// simsvc.Service whose trace cache holds every benchmark, with keys drawn
// Zipf-distributed over all (benchmark, model, granularity) triples.
func serveWarm(ctx context.Context, cfg config) (*outcome, error) {
	keys := rankedKeys(bench.Names(), pipeline.AllNames())
	o := newOutcome()
	if !cfg.trace {
		e, setup, err := setUp(cfg.setups, func() (*serveEnv, error) { return newServeEnv(cfg.gold, nil) }, (*serveEnv).close)
		if err != nil {
			return nil, err
		}
		defer e.close()
		ks := newKeyStream(cfg.seed, keys)
		s, cpu, mallocs := measure(o, keyEpoch, keyEpoch, cfg.dur, func() (uint64, error) {
			_, r, err := e.simulate(cfg.gold, ks.next())
			if err != nil || r.Cached {
				return 0, err
			}
			return r.Insts, nil
		})
		o.endToEnd(s, cpu, mallocs, setup)
		return o, nil
	}

	// Traced: half the run untraced, half traced, each on a fresh service.
	plain, err := newServeEnv(cfg.gold, nil)
	if err != nil {
		return nil, err
	}
	ks := newKeyStream(cfg.seed, keys)
	s, cpu, _ := measure(o, keyEpoch, keyEpoch, cfg.dur/2, func() (uint64, error) {
		_, _, err := plain.simulate(cfg.gold, ks.next())
		return 0, err
	})
	plain.close()
	plainRate := float64(len(s.ms)) / cpu.Seconds()

	tr := newTracer()
	e, err := newServeEnv(cfg.gold, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	before, err := svcMetrics(e.client, e.srv.url())
	if err != nil {
		return nil, err
	}
	ks = newKeyStream(cfg.seed, keys)
	var obs []svcObs
	s, cpu, _ = measure(o, keyEpoch, keyEpoch, cfg.dur/2, func() (uint64, error) {
		id := tr.open("client.simulate", 0)
		ms, r, err := e.simulate(cfg.gold, ks.next())
		tr.close(id, nil)
		if err == nil {
			obs = append(obs, svcObs{latencyMs: ms, elapsedMs: r.ElapsedMS, cached: r.Cached})
		}
		return 0, err
	})
	after, err := svcMetrics(e.client, e.srv.url())
	if err != nil {
		return nil, err
	}
	o.simsvcLayer(obs, before, after)
	o.layer("tracing_coverage_share", coverage(tr.named("client.simulate")), "share")
	o.layer("tracing_overhead_share", plainRate/(float64(len(s.ms))/cpu.Seconds())-1, "share")
	o.tracer = tr
	return o, nil
}

// serveEnv is one service on a loopback listener, the way sigserve
// serves it, with its trace cache warmed.
type serveEnv struct {
	svc    *simsvc.Service
	srv    *server
	client *http.Client
}

func newServeEnv(gold *golden, tr *tracer) (*serveEnv, error) {
	svc := simsvc.New(simsvc.Config{Workers: serveWorkers})
	srv, err := startServer(tr.handler("simsvc.simulate", "/v1/simulate", false, simsvc.NewHandler(svc)))
	if err != nil {
		svc.Close()
		return nil, err
	}
	e := &serveEnv{svc: svc, srv: srv, client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{}}}
	// One capture per benchmark fills the trace cache; the first request
	// also builds the service's instruction recoder.
	for _, b := range svc.Benchmarks() {
		if _, _, err := e.simulate(gold, simKey{b.Name, pipeline.NameBaseline32, 1}); err != nil {
			e.close()
			return nil, fmt.Errorf("warming %s: %w", b.Name, err)
		}
	}
	return e, nil
}

// simulate issues one /v1/simulate request and checks its answer.
func (e *serveEnv) simulate(gold *golden, k simKey) (float64, *simsvc.Response, error) {
	q := url.Values{"bench": {k.bench}, "model": {k.model}, "gran": {strconv.Itoa(k.gran)}}
	var r simsvc.Response
	ms, _, err := get(e.client, e.srv.url()+"/v1/simulate?"+q.Encode(), &r)
	if err != nil {
		return 0, nil, err
	}
	if err := gold.checkSimulate(k, &r); err != nil {
		return 0, nil, err
	}
	return ms, &r, nil
}

func (e *serveEnv) close() {
	e.srv.stop()
	e.svc.Close()
	e.client.CloseIdleConnections()
}

// setUp builds n environments one after another, closing all but the last,
// and returns the last with every set-up's CPU time in seconds.
func setUp[T any](n int, build func() (T, error), closeEnv func(T)) (T, []float64, error) {
	var env T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeEnv(env)
		}
		start := cpuNow()
		var err error
		if env, err = build(); err != nil {
			return env, nil, err
		}
		times = append(times, (cpuNow() - start).Seconds())
	}
	return env, times, nil
}

// coverage is the share of the interval from the first span's start to
// the last span's end that the spans cover.
func coverage(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	ivs := make([]interval, len(spans))
	lo, hi := spans[0].Start, spans[0].End
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	if hi <= lo {
		return 0
	}
	return covered(ivs, lo, hi) / (hi - lo)
}
