// Package selection implements the source-selection algorithms of
// Section 5 of the paper and the GRASP baseline of Dong et al. that the
// paper compares against:
//
//   - Greedy: the marginal-gain greedy of Dong et al. — iteratively add the
//     candidate that most improves profit until no addition improves.
//   - MaxSub (Algorithm 1): the Feige–Mirrokni local search for maximizing
//     a (possibly non-monotone) submodular function, with add and delete
//     moves gated by the (1+ε/n²) improvement threshold, returning the
//     better of the local optimum and its complement.
//   - MatroidLocalSearch / MatroidMax (Algorithms 3 and 2): the Lee et al.
//     local search under k matroid constraints with delete and exchange
//     moves gated by (1+ε/n⁴), run k+1 times on shrinking ground sets.
//   - GRASP(κ, r): r rounds of randomized greedy construction (uniform
//     choice among the κ best positive-marginal candidates) followed by
//     add/drop/swap hill climbing.
//
// All algorithms consume a value oracle and an optional feasibility
// predicate (the budget βc) and report the selected set, its value, the
// number of oracle calls and the wall-clock duration.
//
// Every algorithm's inner loop is a candidate sweep: evaluate each legal
// move's value, then take the best. Sweeps run through one engine
// (evaluator.sweep) that can fan evaluations across workers — see the
// Parallel option — and probe additions incrementally when the oracle
// implements IncrementalOracle. Both accelerations are exact: move values
// land at fixed indices, the argmax reduction runs sequentially in the
// historical scan order (ties resolve to the lowest-index move), and
// incremental probes are bit-identical to full evaluations, so accelerated
// runs return byte-identical Results to the plain sequential path.
package selection

import (
	"errors"
	"math"
	"time"

	"freshsource/internal/bitset"
	"freshsource/internal/matroid"
	"freshsource/internal/obs"
	"freshsource/internal/stats"
)

// ErrCanceled is the Result.Err of a run stopped by its Context option
// before reaching a local optimum. The returned Set and Value still form a
// consistent pair — Value is the oracle's exact value of Set as of the last
// fully-completed move — but the set is not a finished selection.
var ErrCanceled = errors.New("selection: run canceled")

// Oracle is the profit value oracle f and the feasibility predicate (the
// budget constraint of Definitions 3–5). Implementations must be safe for
// concurrent calls when used with the Parallel option.
type Oracle interface {
	Value(set []int) float64
	Feasible(set []int) bool
}

// Result reports one algorithm run.
type Result struct {
	// Set is the selected candidate set.
	Set []int
	// Value is f(Set).
	Value float64
	// OracleCalls is the exact number of value-oracle evaluations the run
	// performed: every algorithm counts through a CountingOracle wrapper,
	// so the count never depends on the oracle implementing one.
	// Incremental ValueAdd probes count exactly like the full Value
	// evaluations they replace, and memoization (CachedOracle) sits below
	// the counter, so the count is identical across the sequential,
	// parallel, incremental and cached paths.
	OracleCalls int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
	// Err is non-nil when the run did not complete: ErrCanceled when the
	// Context option's context fired. Set and Value then hold the last
	// fully-completed state (possibly the empty set) — never the partial
	// reduction of an interrupted sweep.
	Err error
}

// without returns set \ {xs...}.
func without(set []int, xs ...int) []int {
	out := make([]int, 0, len(set))
	for _, y := range set {
		drop := false
		for _, x := range xs {
			if y == x {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, y)
		}
	}
	return out
}

// with returns set ∪ {x} (assumes x ∉ set).
func with(set []int, x int) []int {
	out := make([]int, 0, len(set)+1)
	out = append(out, set...)
	return append(out, x)
}

// members builds the O(1) membership index the sweep loops test instead of
// scanning the set.
func members(n int, set []int) *bitset.Set {
	m := bitset.New(n)
	for _, x := range set {
		m.Add(x)
	}
	return m
}

// resetMembers re-syncs a membership bitset after a delete or exchange
// move replaced the set.
func resetMembers(m *bitset.Set, set []int) {
	m.Clear()
	for _, x := range set {
		m.Add(x)
	}
}

// addProber probes single-candidate additions, incrementally against
// cached set state when the oracle supports it and by full evaluation
// otherwise. The zero cost of re-deriving this per round keeps the cached
// state consistent with the current set.
type addProber struct {
	co    *CountingOracle
	state any
	incr  bool
}

// beginAdds caches add-probe state for the current set; its first probe
// fills the state's caches with the run's workers and context.
func (e evaluator) beginAdds(co *CountingOracle, set []int) addProber {
	state, incr := co.tryBeginAdd(e.ctx, set, e.workers)
	return addProber{co: co, state: state, incr: incr}
}

// value returns f(cand) where cand = set ∪ {x} for the prober's set.
func (p addProber) value(cand []int, x int) float64 {
	if p.incr {
		return p.co.valueAdd(p.state, x)
	}
	return p.co.Value(cand)
}

// grow returns s with length n, reallocating only when capacity falls
// short; contents are overwritten by the sweep.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Greedy is the greedy baseline of Dong et al.: starting from the empty
// set, repeatedly add the feasible candidate with the best positive
// marginal profit; stop when no addition improves.
func Greedy(f Oracle, n int, opts ...Option) Result {
	co, rt := traceRun(f, "greedy")
	adds := obs.Counter("selection.greedy.adds")
	ev := newEvaluator(opts)
	defer ev.close()
	var set []int
	member := bitset.New(n)
	cur := co.Value(set)
	vals := make([]float64, n)
	ok := make([]bool, n)
	for {
		probe := ev.beginAdds(co, set)
		ev.sweep(n, func(x int) {
			ok[x] = false
			if member.Contains(x) {
				return
			}
			cand := with(set, x)
			if !co.Feasible(cand) {
				return
			}
			vals[x] = probe.value(cand, x)
			ok[x] = true
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestIdx, bestVal := -1, cur
		for x := 0; x < n; x++ {
			if ok[x] && vals[x] > bestVal {
				bestIdx, bestVal = x, vals[x]
			}
		}
		if bestIdx < 0 {
			break
		}
		set = with(set, bestIdx)
		member.Add(bestIdx)
		cur = bestVal
		adds.Inc()
	}
	return rt.finish(set, cur)
}

// improves implements the multiplicative improvement threshold
// f(new) > (1 + ε/d)·f(cur) of Algorithms 1 and 3, made robust to
// non-positive values: the required improvement is ε/d of |f(cur)|, with a
// tiny absolute floor to guarantee termination.
func improves(newV, curV, eps, denom float64) bool {
	delta := (eps / denom) * math.Abs(curV)
	if delta < 1e-12 {
		delta = 1e-12
	}
	return newV > curV+delta
}

// MaxSub is Algorithm 1 of the paper (Feige & Mirrokni local search). eps
// is the approximation slack ε; the thresholds use ε/n².
func MaxSub(f Oracle, n int, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "maxsub")
	moves := obs.Counter("selection.maxsub.moves")
	if n == 0 {
		return rt.finish(nil, co.Value(nil))
	}
	ev := newEvaluator(opts)
	defer ev.close()
	denom := float64(n) * float64(n)

	// Ln. 3: best feasible singleton.
	set, cur := bestSingleton(co, n, ev)
	if ev.canceled() {
		return rt.finishErr(nil, co.Value(nil), ErrCanceled)
	}
	if set == nil {
		return rt.finish(nil, co.Value(nil))
	}
	member := members(n, set)

	// Ln. 4–10: local add/delete moves.
	vals := make([]float64, n)
	ok := make([]bool, n)
	cands := make([][]int, n)
	for {
		moved := false
		// Addition sweep, optionally over a sampled neighborhood (the
		// Sampled option): indices are drawn before the sweep fans out and
		// the reduction scans them in ascending order, so the sampled path
		// keeps the deterministic lowest-index tie resolution.
		addIdx := ev.sampleIdx(n)
		probe := ev.beginAdds(co, set)
		ev.sweepOn(n, addIdx, func(x int) {
			ok[x] = false
			if member.Contains(x) {
				return
			}
			cand := with(set, x)
			if !co.Feasible(cand) {
				return
			}
			vals[x] = probe.value(cand, x)
			ok[x] = true
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestIdx, bestVal := -1, cur
		reduceAdd := func(x int) {
			if ok[x] && improves(vals[x], cur, eps, denom) && vals[x] > bestVal {
				bestIdx, bestVal = x, vals[x]
			}
		}
		if addIdx == nil {
			for x := 0; x < n; x++ {
				reduceAdd(x)
			}
		} else {
			for _, x := range addIdx {
				reduceAdd(x)
			}
		}
		if bestIdx >= 0 {
			set, cur = with(set, bestIdx), bestVal
			member.Add(bestIdx)
			moved = true
			moves.Inc()
		}
		// Deletion sweep (the sequential path never feasibility-gated
		// deletions; shrinking a feasible set keeps an additive budget).
		m := len(set)
		ev.sweep(m, func(i int) {
			cand := without(set, set[i])
			cands[i] = cand
			vals[i] = co.Value(cand)
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestI := -1
		bestVal = cur
		for i := 0; i < m; i++ {
			if improves(vals[i], cur, eps, denom) && vals[i] > bestVal {
				bestI, bestVal = i, vals[i]
			}
		}
		if bestI >= 0 {
			member.Remove(set[bestI])
			set, cur = cands[bestI], bestVal
			moved = true
			moves.Inc()
		}
		if !moved {
			break
		}
	}

	// Ln. 11: compare with the complement.
	comp := make([]int, 0, n-len(set))
	for x := 0; x < n; x++ {
		if !member.Contains(x) {
			comp = append(comp, x)
		}
	}
	if co.Feasible(comp) {
		if v := co.Value(comp); v > cur {
			set, cur = comp, v
		}
	}
	return rt.finish(set, cur)
}

// bestSingleton sweeps the feasible singletons and returns the best.
func bestSingleton(co *CountingOracle, n int, ev evaluator) ([]int, float64) {
	vals := make([]float64, n)
	ok := make([]bool, n)
	probe := ev.beginAdds(co, nil)
	ev.sweep(n, func(x int) {
		ok[x] = false
		cand := []int{x}
		if !co.Feasible(cand) {
			return
		}
		vals[x] = probe.value(cand, x)
		ok[x] = true
	})
	bestIdx, bestVal := -1, math.Inf(-1)
	for x := 0; x < n; x++ {
		if ok[x] && vals[x] > bestVal {
			bestIdx, bestVal = x, vals[x]
		}
	}
	if bestIdx < 0 {
		return nil, 0
	}
	return []int{bestIdx}, bestVal
}

// MatroidLocalSearch is Algorithm 3: local search over ground (a subset of
// {0,…,n-1}) under the intersection of the given matroids, with delete and
// exchange moves gated by (1+ε/n⁴).
func MatroidLocalSearch(f Oracle, ground []int, ms []matroid.Matroid, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "matroidlocal")
	moves := obs.Counter("selection.matroidlocal.moves")
	if len(ground) == 0 {
		return rt.finish(nil, co.Value(nil))
	}
	ev := newEvaluator(opts)
	defer ev.close()
	n := 0
	for _, m := range ms {
		if m.N() > n {
			n = m.N()
		}
	}
	if n == 0 {
		n = len(ground)
	}
	denom := float64(n) * float64(n) * float64(n) * float64(n)

	// The membership universe must span the ground elements even when no
	// matroid bounds them.
	ub := n
	for _, x := range ground {
		if x+1 > ub {
			ub = x + 1
		}
	}
	member := bitset.New(ub)

	// Ln. 3: best feasible singleton within the ground set.
	g := len(ground)
	vals := make([]float64, g)
	ok := make([]bool, g)
	cands := make([][]int, g)
	probe := ev.beginAdds(co, nil)
	ev.sweep(g, func(i int) {
		ok[i] = false
		cand := []int{ground[i]}
		if !matroid.AllIndependent(ms, cand) || !co.Feasible(cand) {
			return
		}
		vals[i] = probe.value(cand, ground[i])
		ok[i] = true
	})
	if ev.canceled() {
		return rt.finishErr(nil, co.Value(nil), ErrCanceled)
	}
	var set []int
	cur := math.Inf(-1)
	for i := 0; i < g; i++ {
		if ok[i] && vals[i] > cur {
			set, cur = []int{ground[i]}, vals[i]
		}
	}
	if set == nil {
		return rt.finish(nil, co.Value(nil))
	}
	member.Add(set[0])

	for {
		moved := false

		// Ln. 5–7: delete operation.
		m := len(set)
		ev.sweep(m, func(i int) {
			cand := without(set, set[i])
			cands[i] = cand
			vals[i] = co.Value(cand)
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestI, bestVal := -1, cur
		for i := 0; i < m; i++ {
			if improves(vals[i], cur, eps, denom) && vals[i] > bestVal {
				bestI, bestVal = i, vals[i]
			}
		}
		if bestI >= 0 {
			set, cur = cands[bestI], bestVal
			resetMembers(member, set)
			moved = true
			moves.Inc()
		}

		// Ln. 8–10: exchange operation — bring in d, removing at most one
		// conflicting element per matroid. Optionally over a sampled
		// neighborhood (the Sampled option), drawn sequentially and reduced
		// in ascending order for determinism at any worker count.
		exIdx := ev.sampleIdx(g)
		ev.sweepOn(g, exIdx, func(i int) {
			ok[i] = false
			d := ground[i]
			if member.Contains(d) {
				return
			}
			var removals []int
			admissible := true
			for _, m := range ms {
				if m.CanAdd(without(set, removals...), d) {
					continue
				}
				conf := m.Conflicts(set, d)
				if conf == nil {
					admissible = false
					break
				}
				removals = append(removals, conf...)
			}
			if !admissible {
				return
			}
			cand := with(without(set, removals...), d)
			if !matroid.AllIndependent(ms, cand) || !co.Feasible(cand) {
				return
			}
			cands[i] = cand
			vals[i] = co.Value(cand)
			ok[i] = true
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		bestI, bestVal = -1, cur
		reduceEx := func(i int) {
			if ok[i] && improves(vals[i], cur, eps, denom) && vals[i] > bestVal {
				bestI, bestVal = i, vals[i]
			}
		}
		if exIdx == nil {
			for i := 0; i < g; i++ {
				reduceEx(i)
			}
		} else {
			for _, i := range exIdx {
				reduceEx(i)
			}
		}
		if bestI >= 0 {
			set, cur = cands[bestI], bestVal
			resetMembers(member, set)
			moved = true
			moves.Inc()
		}

		if !moved {
			break
		}
	}
	return rt.finish(set, cur)
}

// MatroidMax is Algorithm 2: run the local search k+1 times on shrinking
// ground sets (removing each round's selection) and return the best round.
func MatroidMax(f Oracle, n int, ms []matroid.Matroid, eps float64, opts ...Option) Result {
	co, rt := traceRun(f, "matroidmax")
	ground := make([]int, n)
	for i := range ground {
		ground[i] = i
	}
	k := len(ms)
	var best Result
	best.Value = math.Inf(-1)
	for i := 0; i <= k; i++ {
		if len(ground) == 0 {
			break
		}
		// The nested run shares co, so rt's delta accounting covers it.
		r := MatroidLocalSearch(co, ground, ms, eps, opts...)
		if r.Value > best.Value {
			best = r
		}
		if r.Err != nil {
			if math.IsInf(best.Value, -1) {
				best = Result{Value: co.Value(nil)}
			}
			return rt.finishErr(best.Set, best.Value, r.Err)
		}
		ground = without(ground, r.Set...)
	}
	if math.IsInf(best.Value, -1) {
		best = Result{Value: co.Value(nil)}
	}
	return rt.finish(best.Set, best.Value)
}

// GRASP is the randomized multi-start of Dong et al.: r rounds of greedy
// randomized construction — at each step choose uniformly among the κ
// candidates with the largest positive marginal profit — followed by
// add/drop/swap hill climbing; the best round wins. (κ=1, r=1) degenerates
// to plain hill climbing.
//
// Randomization is unaffected by the Parallel option: the rng draws happen
// in the sequential reduction, and the candidate lists it draws from are
// assembled in index order, so a seeded run selects identically at any
// worker count.
func GRASP(f Oracle, n int, kappa, r int, rng *stats.RNG, opts ...Option) Result {
	co, rt := traceRun(f, "grasp")
	restarts := obs.Counter("selection.grasp.restarts")
	ev := newEvaluator(opts)
	defer ev.close()
	best := Result{Value: math.Inf(-1)}
	for it := 0; it < r; it++ {
		restarts.Inc()
		set, cur := graspConstruct(co, n, kappa, rng, ev)
		if !ev.canceled() {
			set, cur = hillClimb(co, n, set, cur, ev)
		}
		// A canceled round still yields a consistent (set, exact value)
		// pair — its last completed move — so it may enter the best.
		if cur > best.Value {
			best.Set = append([]int(nil), set...)
			best.Value = cur
		}
		if ev.canceled() {
			return rt.finishErr(best.Set, best.Value, ErrCanceled)
		}
	}
	if math.IsInf(best.Value, -1) {
		best = Result{Value: co.Value(nil)}
	}
	return rt.finish(best.Set, best.Value)
}

func graspConstruct(co *CountingOracle, n, kappa int, rng *stats.RNG, ev evaluator) ([]int, float64) {
	var set []int
	member := bitset.New(n)
	cur := co.Value(set)
	vals := make([]float64, n)
	ok := make([]bool, n)
	type cand struct {
		x int
		v float64
	}
	var cands []cand
	for {
		probe := ev.beginAdds(co, set)
		ev.sweep(n, func(x int) {
			ok[x] = false
			if member.Contains(x) {
				return
			}
			s := with(set, x)
			if !co.Feasible(s) {
				return
			}
			vals[x] = probe.value(s, x)
			ok[x] = true
		})
		if ev.canceled() {
			return set, cur
		}
		cands = cands[:0]
		for x := 0; x < n; x++ {
			if ok[x] && vals[x] > cur {
				cands = append(cands, cand{x, vals[x]})
			}
		}
		if len(cands) == 0 {
			return set, cur
		}
		// Restricted candidate list: the κ best by value (ties keep index
		// order, so the draw below is deterministic for a seeded rng).
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if cands[j].v > cands[i].v {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		rcl := cands
		if len(rcl) > kappa {
			rcl = rcl[:kappa]
		}
		pick := rcl[rng.Intn(len(rcl))]
		set = with(set, pick.x)
		member.Add(pick.x)
		cur = pick.v
	}
}

// hillClimb applies best-improvement add, drop and swap moves until a local
// optimum. Each round enumerates its legal moves in the historical scan
// order (adds, then drops, then swaps), sweeps their values, and takes the
// best strict improvement.
func hillClimb(co *CountingOracle, n int, set []int, cur float64, ev evaluator) ([]int, float64) {
	movesCtr := obs.Counter("selection.hillclimb.moves")
	member := members(n, set)
	// A move drops set[di] (di < 0: pure add) and adds candidate add
	// (add < 0: pure drop).
	type mv struct{ di, add int }
	var (
		moves      []mv
		vals       []float64
		ok         []bool
		cands      [][]int
		bases      [][]int
		dropProbes []addProber
	)
	for {
		moves = moves[:0]
		for x := 0; x < n; x++ {
			if !member.Contains(x) {
				moves = append(moves, mv{-1, x})
			}
		}
		for i := range set {
			moves = append(moves, mv{i, -1})
		}
		for i := range set {
			for y := 0; y < n; y++ {
				if !member.Contains(y) {
					moves = append(moves, mv{i, y})
				}
			}
		}
		bases = bases[:0]
		for i := range set {
			bases = append(bases, without(set, set[i]))
		}
		// Swap moves sharing a dropped element probe additions against that
		// base's cached state: one state build per base serves every swap
		// target, turning the |set|·(n−|set|) swap evaluations incremental.
		dropProbes = dropProbes[:0]
		for i := range bases {
			dropProbes = append(dropProbes, ev.beginAdds(co, bases[i]))
		}

		m := len(moves)
		vals = grow(vals, m)
		ok = grow(ok, m)
		cands = grow(cands, m)
		probe := ev.beginAdds(co, set)
		ev.sweep(m, func(k int) {
			ok[k] = false
			w := moves[k]
			var cand []int
			switch {
			case w.di < 0: // add
				cand = with(set, w.add)
				if !co.Feasible(cand) {
					return
				}
				vals[k] = probe.value(cand, w.add)
			case w.add < 0: // drop (never feasibility-gated, as sequentially)
				cand = bases[w.di]
				vals[k] = co.Value(cand)
			default: // swap
				cand = with(bases[w.di], w.add)
				if !co.Feasible(cand) {
					return
				}
				vals[k] = dropProbes[w.di].value(cand, w.add)
			}
			cands[k] = cand
			ok[k] = true
		})
		if ev.canceled() {
			return set, cur
		}
		bestK, bestVal := -1, cur
		for k := 0; k < m; k++ {
			if ok[k] && vals[k] > bestVal {
				bestK, bestVal = k, vals[k]
			}
		}
		if bestK < 0 {
			return set, cur
		}
		set, cur = cands[bestK], bestVal
		resetMembers(member, set)
		movesCtr.Inc()
	}
}
