package main

import (
	"math"
	"math/rand"
	"sort"
)

// simKey is one /v1/simulate request: a (benchmark, model, granularity)
// triple.
type simKey struct {
	bench, model string
	gran         int
}

// zipfS is the skew of the serve-warm key popularity: a few keys take most
// requests, as repeated scripted queries do, while the long tail keeps the
// result cache missing.
const zipfS = 1.1

// rankSeed fixes which key holds which popularity rank. It is a constant,
// not the run's seed, so every seed draws from the same popularity curve
// and only the order of requests changes between seeds; otherwise one
// seed could make a slow benchmark the most popular key and the runs of
// different seeds would measure different mixes.
const rankSeed = 20001

// rankedKeys lists every (benchmark, model, granularity) key in a fixed,
// shuffled popularity order, so popularity is spread over benchmarks and
// models instead of following suite order.
func rankedKeys(benches, models []string) []simKey {
	keys := make([]simKey, 0, len(benches)*len(models)*2)
	for _, b := range benches {
		for _, m := range models {
			for gran := 1; gran <= 2; gran++ {
				keys = append(keys, simKey{b, m, gran})
			}
		}
	}
	rand.New(rand.NewSource(rankSeed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// keyEpoch is the number of requests in which the key stream asks for
// each key its Zipf share of times, rounded.
const keyEpoch = 2000

// keyStream hands out keys Zipf-distributed over their popularity ranks,
// an epoch at a time: every keyEpoch requests hold each key a fixed number
// of times, in an order drawn from the seed. Drawing each key
// independently instead would let the seed change how often the rare,
// uncached keys come up, and with it the run's share of kernel misses.
type keyStream struct {
	r     *rand.Rand
	epoch []simKey
	i     int
}

func newKeyStream(seed int64, keys []simKey) *keyStream {
	k := &keyStream{r: rand.New(rand.NewSource(seed))}
	for rank, n := range zipfCounts(len(keys), keyEpoch) {
		for ; n > 0; n-- {
			k.epoch = append(k.epoch, keys[rank])
		}
	}
	return k
}

func (k *keyStream) next() simKey {
	if k.i == 0 {
		k.r.Shuffle(len(k.epoch), func(i, j int) { k.epoch[i], k.epoch[j] = k.epoch[j], k.epoch[i] })
	}
	key := k.epoch[k.i]
	k.i = (k.i + 1) % len(k.epoch)
	return key
}

// zipfCounts splits total requests over n ranks in proportion to
// (rank+1)^-zipfS, the law of rand.NewZipf(r, zipfS, 1, n-1), rounding by
// largest remainder so the counts sum to total.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -zipfS)
		sum += w[i]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := total
	for i := range w {
		q := float64(total) * w[i] / sum
		counts[i] = int(q)
		left -= counts[i]
		w[i] = q - float64(counts[i])
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:left] {
		counts[i]++
	}
	return counts
}

// gateway-scatter leaves out the gatewayLargest largest benchmarks (the
// other two workloads run them) and splits the other twelve into four
// requests of three, each with a reference instruction total within
// evenSpread of their mean.
const (
	gatewayLargest = 4
	evenSpread     = 0.05
)

// evenPartitions lists every split of the gateway-scatter benchmarks into
// triples of about equal work, each triple in suite order. Equal work lets
// a run's percentiles measure the path rather than the sizes the seed drew.
func evenPartitions(g *golden, names []string) [][][]string {
	bySize := append([]string(nil), names...)
	sort.SliceStable(bySize, func(i, j int) bool { return g.rows[bySize[i]].Insts > g.rows[bySize[j]].Insts })
	left := make(map[string]bool)
	for _, n := range bySize[:gatewayLargest] {
		left[n] = true
	}
	var ns []string
	var total uint64
	for _, n := range names {
		if !left[n] {
			ns = append(ns, n)
			total += g.rows[n].Insts
		}
	}
	mean := float64(total) / float64(len(ns)/3)
	var out [][][]string
	var walk func(rest []string, acc [][]string)
	walk = func(rest []string, acc [][]string) {
		if len(rest) == 0 {
			out = append(out, append([][]string(nil), acc...))
			return
		}
		for i := 1; i < len(rest); i++ {
			for j := i + 1; j < len(rest); j++ {
				t := []string{rest[0], rest[i], rest[j]}
				sum := g.rows[t[0]].Insts + g.rows[t[1]].Insts + g.rows[t[2]].Insts
				if math.Abs(float64(sum)-mean) > evenSpread*mean {
					continue
				}
				var next []string
				for k, n := range rest {
					if k != 0 && k != i && k != j {
						next = append(next, n)
					}
				}
				walk(next, append(acc, t))
			}
		}
	}
	walk(ns, nil)
	return out
}

// subsetStream hands out the triples of one partition after another, the
// partition and the order of its triples drawn from the seed. Every four
// requests from a partition's start ask for each benchmark once, so the mix
// of benchmarks in a run is the same for every seed.
type subsetStream struct {
	r     *rand.Rand
	parts [][][]string
	queue [][]string
}

func newSubsetStream(seed int64, parts [][][]string) *subsetStream {
	return &subsetStream{r: rand.New(rand.NewSource(seed)), parts: parts}
}

func (s *subsetStream) next() []string {
	if len(s.queue) == 0 {
		p := s.parts[s.r.Intn(len(s.parts))]
		for _, i := range s.r.Perm(len(p)) {
			s.queue = append(s.queue, p[i])
		}
	}
	t := s.queue[0]
	s.queue = s.queue[1:]
	return t
}
