package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
)

func draws(seed int64, n int) []simKey {
	ks := newKeyStream(seed, rankedKeys(bench.Names(), pipeline.AllNames()))
	out := make([]simKey, n)
	for i := range out {
		out[i] = ks.next()
	}
	return out
}

func subsets(t *testing.T, seed int64, n int) [][]string {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	ss := newSubsetStream(seed, evenPartitions(g, bench.Names()))
	out := make([][]string, n)
	for i := range out {
		out[i] = ss.next()
	}
	return out
}

func TestKeyStreamSeeded(t *testing.T) {
	if a, b := draws(1, 500), draws(1, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different key sequences")
	}
	if a, b := draws(1, 500), draws(2, 500); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds drew the same key sequence")
	}
	keys := rankedKeys(bench.Names(), pipeline.AllNames())
	if len(keys) != 16*12*2 {
		t.Fatalf("%d keys, want 384", len(keys))
	}
	// Zipf popularity: the top-ranked key is drawn far more often than
	// one deep in the tail.
	counts := make(map[simKey]int)
	for _, k := range draws(3, 20000) {
		counts[k]++
	}
	if counts[keys[0]] < 10*counts[keys[200]]+10 {
		t.Errorf("rank 0 drawn %d times, rank 200 %d: not Zipf-skewed", counts[keys[0]], counts[keys[200]])
	}
}

func TestSubsetStreamSeeded(t *testing.T) {
	if a, b := subsets(t, 1, 100), subsets(t, 1, 100); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different subset sequences")
	}
	if a, b := subsets(t, 1, 100), subsets(t, 2, 100); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds drew the same subset sequence")
	}
	g, _ := loadGolden()
	if parts := evenPartitions(g, bench.Names()); len(parts) < 100 {
		t.Fatalf("only %d even partitions", len(parts))
	}
	lo, hi := uint64(math.MaxUint64), uint64(0)
	draws := subsets(t, 5, 200)
	for i := 0; i < len(draws); i += 4 {
		seen := make(map[string]bool)
		for _, s := range draws[i : i+4] {
			if len(s) != 3 {
				t.Fatalf("subset %v is not three benchmarks", s)
			}
			for _, n := range s {
				if seen[n] {
					t.Fatalf("requests %d..%d ask for %s twice", i, i+3, n)
				}
				seen[n] = true
			}
			total := g.rows[s[0]].Insts + g.rows[s[1]].Insts + g.rows[s[2]].Insts
			lo, hi = min(lo, total), max(hi, total)
		}
		if len(seen) != len(bench.Names())-gatewayLargest {
			t.Fatalf("requests %d..%d cover %d benchmarks, want %d", i, i+3, len(seen), len(bench.Names())-gatewayLargest)
		}
	}
	if float64(hi) > 1.11*float64(lo) {
		t.Errorf("request totals range from %d to %d instructions: not even", lo, hi)
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(384, keyEpoch)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("rank %d asked for %d times, more than rank %d (%d)", i, n, i-1, c[i-1])
		}
	}
	if sum != keyEpoch {
		t.Fatalf("counts sum to %d, want %d", sum, keyEpoch)
	}
	if c[0] < 300 || c[383] > 1 {
		t.Errorf("rank 0 asked for %d times, rank 383 %d: not Zipf(%g)", c[0], c[383], zipfS)
	}
}
