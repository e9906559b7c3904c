package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/simsvc"
)

// requestTimeout fails a request that hangs, so a stuck service ends the
// run with failures instead of never ending it.
const requestTimeout = 60 * time.Second

// server is a layer's HTTP handler on a loopback listener.
type server struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, ln: ln, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) url() string { return "http://" + s.ln.Addr().String() }

// stop closes the listener and every connection, and waits for Serve to
// return.
func (s *server) stop() {
	_ = s.srv.Close() // the only error is the listener's close error, already shutting down
	<-s.done
}

// get fetches url and decodes its JSON body into out. It returns the time
// until the body was read, and the body's size. Any status other than 200
// is a failure.
func get(client *http.Client, url string, out interface{}) (float64, int, error) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := msSince(t0)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return 0, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return ms, len(body), nil
}

// svcObs is one simsvc answer as the layer's caller saw it.
type svcObs struct {
	latencyMs float64
	elapsedMs float64 // the response's elapsedMillis: the simulation itself
	cached    bool
}

// simsvcLayer sets the simsvc per-layer metrics from the answers seen in a
// traced pass and the shards' /metrics counters before and after it.
func (o *outcome) simsvcLayer(obs []svcObs, before, after simsvc.Snapshot) {
	var hit, miss, exec, overhead []float64
	for _, ob := range obs {
		if ob.cached {
			hit = append(hit, ob.latencyMs)
			continue
		}
		miss = append(miss, ob.latencyMs)
		exec = append(exec, ob.elapsedMs)
		overhead = append(overhead, ob.latencyMs-ob.elapsedMs)
	}
	o.layer("simsvc.result_hit_ratio", ratio(len(hit), len(obs)), "share")
	o.layer("simsvc.hit_p50_ms", median(hit), "ms")
	o.layer("simsvc.miss_p50_ms", median(miss), "ms")
	o.layer("simsvc.exec_p50_ms", median(exec), "ms")
	o.layer("simsvc.overhead_p50_ms", median(overhead), "ms")
	hits := after.TraceCacheHits - before.TraceCacheHits
	o.layer("simsvc.trace_hit_ratio", ratio(int(hits), int(hits+after.TraceCacheMiss-before.TraceCacheMiss)), "share")
	o.layer("simsvc.captures", float64(after.Captures-before.Captures), "count")
	o.layer("simsvc.map_loads", float64(after.TraceMapLoads-before.TraceMapLoads), "count")
	o.layer("simsvc.shed", float64(after.Shed-before.Shed), "count")
	o.layer("simsvc.retries", float64(after.Retries-before.Retries), "count")
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// svcMetrics sums the /metrics counters of the given shards.
func svcMetrics(client *http.Client, urls ...string) (simsvc.Snapshot, error) {
	var sum simsvc.Snapshot
	for _, u := range urls {
		var s simsvc.Snapshot
		if _, _, err := get(client, u+"/metrics", &s); err != nil {
			return sum, err
		}
		sum.TraceCacheHits += s.TraceCacheHits
		sum.TraceCacheMiss += s.TraceCacheMiss
		sum.Captures += s.Captures
		sum.TraceMapLoads += s.TraceMapLoads
		sum.Shed += s.Shed
		sum.Retries += s.Retries
	}
	return sum, nil
}
