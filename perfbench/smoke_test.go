package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark's own in
// suite-cold's set-up probes, which re-run the binary with setupProbeFlag.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == setupProbeFlag {
		fmt.Println(timeSetup())
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end, untraced and traced, on a
// tiny configuration: one set-up and a run short enough for one request
// per client.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite several times")
	}
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"suite-cold", "serve-warm", "gateway-scatter"} {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, dur: time.Millisecond, trace: traced, setups: 1, gold: gold}
			o, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if traced {
				o.addLayerMicro(context.Background(), gold)
			}
			var out bytes.Buffer
			if err := o.print(&out, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := 7
			if traced {
				want = len(layerDefs())
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
			for n, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
			if traced && name == "gateway-scatter" && res.Metrics["simsvc.map_loads"].Value == 0 {
				t.Errorf("gateway-scatter replayed nothing from the mapped tier")
			}
		}
	}
}
