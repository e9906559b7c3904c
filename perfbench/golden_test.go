package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate golden/suite.json from experiments.RunSuite")

// TestGolden checks the reference loads; with -update it first rewrites it
// and prints the digest goldenDigest must be set to.
func TestGolden(t *testing.T) {
	if *update {
		res, err := experiments.RunSuite(context.Background(), bench.All(), suiteWorkers)
		if err != nil {
			t.Fatal(err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("golden", "suite.json"), js, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote golden/suite.json; set goldenDigest = %q and rebuild", digest(js))
		return
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.rows) != len(bench.All()) {
		t.Fatalf("golden has %d rows, want %d", len(g.rows), len(bench.All()))
	}
}

// TestManifest checks BENCHMARK.json names exactly the metrics this
// program prints.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	o := newOutcome()
	o.endToEnd(&samples{ms: []float64{1}, insts: 1}, time.Second, 1, []float64{1})
	if len(m.EndToEnd) != len(o.e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(m.EndToEnd), len(o.e2e))
	}
	for _, e := range m.EndToEnd {
		if got, ok := o.e2e[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end metric %s (%s) is not printed with that unit", e.Name, e.Unit)
		}
	}
	defs := layerDefs()
	if len(m.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(m.PerLayer), len(defs))
	}
	for i, d := range defs {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
}
