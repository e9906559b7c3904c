package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadRuns runs this binary n times on one workload with seeds 1..n and
// prints, per metric, the median and the distance between the first and
// third quartile as a share of the median: the run-to-run spread a
// metric's bound in BENCHMARK.json has to cover. Each row ends with the
// values in seed order.
func spreadRuns(n int, workload string, seconds float64, traceFlag int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for seed := 1; seed <= n; seed++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", seed, err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q := quartiles(values[name])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %14.6g %8.4f %s %.4g\n", name, q[0], q[1], q[2], spread, units[name], values[name])
	}
	return 0
}
