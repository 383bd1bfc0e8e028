// Package load builds the benchmark's seeded request plans and holds the
// measurement helpers the benchmark command and the spread report share:
// percentiles, the open-loop scheduler and the warm-mix routing layout.
//
// Every plan is a fixed multiset of operations; the seed only orders it (or,
// for ingest batches, picks the sources and entities of equally sized
// batches), so every run of a workload does the same work.
package load

import (
	"fmt"
	"math/rand"
)

// SelectKey is one /v1/select request shape.
type SelectKey struct {
	Algorithm string  `json:"algorithm"`
	Gain      string  `json:"gain"`
	Metric    string  `json:"metric"`
	Budget    float64 `json:"budget,omitempty"`
	Future    int     `json:"future"`
}

// Name is a short stable label for reports and reference digests.
func (k SelectKey) Name() string {
	return fmt.Sprintf("%s/%s-%s/b%g/f%d", k.Algorithm, k.Gain, k.Metric, k.Budget, k.Future)
}

// Submodular reports whether the key's gain/metric pair is submodular
// (linear over coverage or global freshness, or the data gain).
func (k SelectKey) Submodular() bool {
	switch k.Gain {
	case "data":
		return true
	case "linear":
		return k.Metric == "coverage" || k.Metric == "global-freshness"
	}
	return false
}

// gainPairs alternates submodular and non-submodular gain/metric pairs.
var gainPairs = [][2]string{
	{"linear", "coverage"},
	{"quad", "accuracy"},
	{"linear", "global-freshness"},
	{"step", "local-freshness"},
	{"data", "coverage"},
	{"linear", "accuracy"},
}

// ColdSelectKeys is cold-select's key set: {greedy, maxsub} over six
// gain/metric pairs. The two algorithms of a pair take different budgets
// (0 and 0.3, swapped on every other pair), so no two keys share a
// registry problem and every key is a problem-cache miss. Keys look one
// future tick ahead, except greedy on step/local-freshness and maxsub on
// linear/accuracy, which look six ticks ahead: that lifts two of the four
// ~86-oracle-call keys above the 121–131-call cluster, so the median of
// the twelve falls inside that cluster instead of in the gap between two
// clusters, where it would swing with the host's noise on two keys.
func ColdSelectKeys() []SelectKey {
	var keys []SelectKey
	for i, gm := range gainPairs {
		budgets := [2]float64{0, 0.3}
		if i%2 == 1 {
			budgets = [2]float64{0.3, 0}
		}
		for j, alg := range []string{"greedy", "maxsub"} {
			k := SelectKey{Algorithm: alg, Gain: gm[0], Metric: gm[1], Budget: budgets[j], Future: 1}
			if (gm[0] == "step" && alg == "greedy") || (gm[0] == "linear" && gm[1] == "accuracy" && alg == "maxsub") {
				k.Future = 6
			}
			keys = append(keys, k)
		}
	}
	return keys
}

// ColdSelectPlan orders the cold-select keys for one seed.
func ColdSelectPlan(seed int64) []SelectKey {
	keys := ColdSelectKeys()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// HotSelectKeys are warm-mix's cached select keys: the cheapest
// cold-select key (greedy on data/coverage, 44 oracle calls on world 1), so
// the warm-up stays short. It is one key, not several: each more adds four
// cold solves (two tenants on two replicas) to every set-up.
func HotSelectKeys() []SelectKey {
	return []SelectKey{{Algorithm: "greedy", Gain: "data", Metric: "coverage", Future: 1}}
}

// QualityKey is one /v1/quality request shape.
type QualityKey struct {
	Set    []int `json:"set"`
	Future int   `json:"future"`
}

// Name is a short stable label for reports and reference digests.
func (k QualityKey) Name() string { return fmt.Sprintf("q%v/f%d", k.Set, k.Future) }

// HotQualityKeys are the quality keys warm-mix and ingest-read read.
func HotQualityKeys() []QualityKey {
	return []QualityKey{
		{Set: []int{0}, Future: 2},
		{Set: []int{1, 2}, Future: 2},
		{Set: []int{3, 4, 5}, Future: 1},
		{Set: []int{0, 5, 10, 15, 20}, Future: 1},
	}
}

// Class names a warm-mix request class.
type Class string

// The warm-mix request classes.
const (
	ClassSelect    Class = "select"
	ClassQuality   Class = "quality"
	ClassFreshness Class = "freshness"
	ClassSources   Class = "sources"
)

// Op is one warm-mix request: a class, a tenant and a key index into the
// class's hot key list (0 for freshness and sources).
type Op struct {
	Class  Class
	Tenant string
	Key    int
}

// warmBlock is the class composition of one warm-mix block. The shares
// follow freshbench's default mix, select=6,quality=3,reload=1, with
// reload's share given to freshness (a reload empties every cache, and
// warm-mix measures hits): per tenant the hot select ×1200, the 4 quality
// keys ×150 each, freshness ×200, plus sources ×1. GET /v1/sources is the
// one request that is not a cache hit: it recomputes every source's size,
// ~150× a hit, so even a 0.5 % share made it ~40 % of the load's CPU and
// the hits' latency followed its overlap with them. At 0.05 % it is ~7 %.
func warmBlock(tenants []string) []Op {
	var ops []Op
	for _, t := range tenants {
		for k := range HotSelectKeys() {
			for r := 0; r < 1200; r++ {
				ops = append(ops, Op{ClassSelect, t, k})
			}
		}
		for k := range HotQualityKeys() {
			for r := 0; r < 150; r++ {
				ops = append(ops, Op{ClassQuality, t, k})
			}
		}
		for r := 0; r < 200; r++ {
			ops = append(ops, Op{ClassFreshness, t, 0})
		}
		ops = append(ops, Op{ClassSources, t, 0})
	}
	return ops
}

// WarmMixPlan returns n warm-mix ops (rounded up to whole blocks) over the
// tenants, in seed order. The seed shuffles each block on its own, so every
// stretch of a few blocks has the mix's composition: a full shuffle lets
// the rare, slow sources requests bunch up, and the windowed goodput would
// follow their local density.
func WarmMixPlan(seed int64, tenants []string, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []Op
	for len(ops) < n {
		block := warmBlock(tenants)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops
}

// Event is one streamed observation of an ingest batch.
type Event struct {
	Source  int    `json:"source"`
	Entity  int64  `json:"entity"`
	Kind    string `json:"kind"`
	At      int64  `json:"at"`
	Version int    `json:"version,omitempty"`
}

// BatchSize is the number of observations in every ingest batch.
const BatchSize = 4

// IngestPlan returns n observe batches at the ticks t0+1 … t0+n, each with
// two appears and two updates whose sources and entities the seed picks.
func IngestPlan(seed int64, n, sources, entities int, t0 int64) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Event, n)
	for b := range out {
		at := t0 + 1 + int64(b)
		evs := make([]Event, BatchSize)
		for i := range evs {
			evs[i] = Event{Source: rng.Intn(sources), Entity: int64(rng.Intn(entities)), Kind: "appear", At: at}
			if i%2 == 1 {
				evs[i].Kind, evs[i].Version = "update", 1+rng.Intn(3)
			}
		}
		out[b] = evs
	}
	return out
}
