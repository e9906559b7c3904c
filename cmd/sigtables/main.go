// Command sigtables regenerates every table and figure of "Very Low Power
// Pipelines using Significance Compression" (MICRO-33, 2000) from the
// simulator and workload suite in this repository.
//
// Usage:
//
//	sigtables              # print everything
//	sigtables -exp table5  # one experiment: table1|table2|table3|table5|
//	                       # table6|fig4|fig6|fig8|fig10|bottleneck|fetch
//	sigtables -csv         # CSV instead of aligned text
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate (all, table1, table2, table3, table4, table5, table6, fig4, fig6, fig8, fig10, bottleneck, ablation-scheme, ablation-bp, ablation-partition, energy, bm-baseline, cachesweep, interpretation, fetch)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit the whole evaluation as JSON")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "benchmark-level worker count for the evaluation")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "running the full suite through every model (%d workers)...\n", *parallel)
	r, err := experiments.RunParallel(context.Background(), *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigtables: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		data, err := r.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigtables: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}

	type entry struct {
		name string
		tbl  *stats.Table
	}
	entries := []entry{
		{"table1", r.Table1()},
		{"table2", r.Table2()},
		{"table3", r.Table3()},
		{"table4", experiments.Table4()},
		{"table5", r.Table5()},
		{"table6", r.Table6()},
		{"fig4", r.Fig4()},
		{"fig6", r.Fig6()},
		{"fig8", r.Fig8()},
		{"fig10", r.Fig10()},
		{"bottleneck", r.Bottleneck()},
		{"ablation-scheme", r.AblationScheme()},
		{"ablation-bp", r.AblationPrediction()},
		{"ablation-partition", r.AblationPartition()},
		{"energy", r.EnergySummary()},
		{"bm-baseline", r.BaselineComparison()},
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	if *exp == "fetch" {
		fmt.Println(r.FetchSummary())
		return
	}
	if *exp == "interpretation" || *exp == "all" {
		tbl, err := experiments.AblationInterpretation()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigtables: %v\n", err)
			os.Exit(1)
		}
		emit(tbl)
		if *exp == "interpretation" {
			return
		}
	}
	if *exp == "cachesweep" || *exp == "all" {
		sweep, err := experiments.CacheSweep(experiments.DefaultCacheSweepSizes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigtables: %v\n", err)
			os.Exit(1)
		}
		emit(sweep)
		if *exp == "cachesweep" {
			return
		}
	}
	found := false
	for _, e := range entries {
		if *exp == "all" || *exp == e.name {
			emit(e.tbl)
			found = true
		}
	}
	if *exp == "all" {
		fmt.Println(r.FetchSummary())
		return
	}
	if !found {
		fmt.Fprintf(os.Stderr, "sigtables: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
