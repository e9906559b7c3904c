package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function or handler it calls. Times are milliseconds since
// the tracer's epoch.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
	// Body is the response a traced handler wrote (kept only where a
	// layer metric reads fields of it); it is not written out.
	Body []byte `json:"-"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced runs that give the end-to-end metrics pay no tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e6 }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: t.ms(now)})
	return len(t.spans)
}

// close ends span id, keeping body on it.
func (t *tracer) close(id int, body []byte) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ms(now)
	t.spans[id-1].Body = body
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.open(name, parent)
	err := fn()
	t.close(id, nil)
	return err
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// named returns a copy of the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeFile saves every span as JSON, for reading a run's timeline after
// it ended.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// handler wraps a layer's public HTTP handler so each request for path is
// a span. With keepBody the response body is kept on the span.
func (t *tracer) handler(name, path string, keepBody bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
			h.ServeHTTP(w, r)
			return
		}
		id := t.open(name, 0)
		if !keepBody {
			h.ServeHTTP(w, r)
			t.close(id, nil)
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		t.close(id, tw.buf.Bytes())
	})
}

// teeWriter copies a response body as it is written.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}
