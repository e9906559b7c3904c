package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"

	"repro/internal/experiments"
	"repro/internal/simsvc"
)

// goldenSuite is the suite JSON of experiments.RunSuite over bench.All(),
// as Results.JSON renders it. Every output check of the benchmark compares
// against it, so a wrong answer cannot pass as a fast one. Regenerate it
// with `go test -run TestGolden -update` only when a change is meant to
// alter the simulated results, and update goldenDigest with it.
//
//go:embed golden/suite.json
var goldenSuite []byte

// goldenDigest is the SHA-256 of goldenSuite.
const goldenDigest = "0859baff2a39ad8dd3d620e093199aa7db9a45d31e45304a091455dd59a89b94"

// golden indexes the reference suite by benchmark.
type golden struct {
	rows map[string]experiments.BenchJSON
}

func loadGolden() (*golden, error) {
	if d := digest(goldenSuite); d != goldenDigest {
		return nil, fmt.Errorf("golden/suite.json digest %s, want %s", d, goldenDigest)
	}
	js, err := experiments.DecodeJSON(goldenSuite)
	if err != nil {
		return nil, fmt.Errorf("golden/suite.json: %w", err)
	}
	g := &golden{rows: make(map[string]experiments.BenchJSON, len(js.Benchmarks))}
	for _, b := range js.Benchmarks {
		g.rows[b.Name] = b
	}
	return g, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkRow reports whether one benchmark row of a suite document equals
// the reference row.
func (g *golden) checkRow(b experiments.BenchJSON) error {
	want, ok := g.rows[b.Name]
	if !ok {
		return fmt.Errorf("unexpected benchmark %q", b.Name)
	}
	if !reflect.DeepEqual(b, want) {
		return fmt.Errorf("benchmark %s: row differs from the reference", b.Name)
	}
	return nil
}

// checkSimulate reports whether a single-model response carries the
// reference CPI, cycle count and activity savings for its key. The
// reference cycle count is recovered exactly from the reference CPI.
func (g *golden) checkSimulate(k simKey, r *simsvc.Response) error {
	want, ok := g.rows[k.bench]
	if !ok {
		return fmt.Errorf("unexpected benchmark %q", k.bench)
	}
	if r.Bench != k.bench || r.Model != k.model || r.Granularity != k.gran {
		return fmt.Errorf("%v: response is for %s/%s/%d", k, r.Bench, r.Model, r.Granularity)
	}
	cpi, ok := want.CPI[k.model]
	if !ok {
		return fmt.Errorf("%v: no reference CPI", k)
	}
	saving := want.ByteSaving
	if k.gran == 2 {
		saving = want.HalfSaving
	}
	cycles := uint64(math.Round(cpi * float64(want.Insts)))
	if r.Insts != want.Insts || r.CPI != cpi || r.Cycles != cycles || !reflect.DeepEqual(r.Activity, saving) {
		return fmt.Errorf("%v: result differs from the reference", k)
	}
	return nil
}
