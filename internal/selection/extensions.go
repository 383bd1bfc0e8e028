package selection

import (
	"math"

	"freshsource/internal/obs"
)

// This file extends the paper's algorithm suite with two standard
// submodular-optimization tools that a production deployment wants:
//
//   - LazyGreedy (CELF): greedy with lazy marginal re-evaluation. For
//     monotone submodular objectives the marginal gain of a candidate can
//     only shrink as the solution grows, so a stale upper bound from an
//     earlier round often suffices to skip re-evaluation. Byte-identical
//     output to Greedy on submodular objectives, far fewer oracle calls.
//
//   - BudgetedGreedy: the cost-benefit greedy for a knapsack budget βc
//     (Definition 3's constraint, which the paper's experiments leave
//     unconstrained): grow by the best marginal-profit-per-unit-cost
//     candidate that fits, and return the better of that solution and the
//     best feasible singleton — the classic (1−1/√e)-style guarantee
//     construction.

// celfEntry is one priority-queue entry of the CELF lazy greedy: the last
// oracle value observed for set ∪ {idx} and the marginal gain it implied,
// stamped with the solution size (round) it was computed at.
type celfEntry struct {
	idx   int32
	round int32
	gain  float64
	val   float64
}

// celfBefore is the CELF heap order. The invariant that makes lazy
// evaluation exact (see DESIGN.md): diminishing marginal gains make every
// stale gain an upper bound on the candidate's current gain, so the true
// best candidate can never hide below a fresh top. Priority is
//
//	gain desc → round asc → val desc → idx asc
//
// gain desc surfaces the most promising bound. round asc breaks gain ties
// stale-before-fresh: a stale bound tied with a fresh gain might still
// cover a candidate Greedy would prefer, so it must be recomputed before
// the fresh entry may win. Among fresh entries (equal round) gain ties are
// broken by val desc then idx asc, because Greedy's sequential argmax
// compares oracle values, not gains — two values that round to the same
// gain against the current solution value are still distinct values, and
// equal values resolve to the lowest index (Greedy's strict `>` scan).
func celfBefore(a, b celfEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.round != b.round {
		return a.round < b.round
	}
	if a.val != b.val {
		return a.val > b.val
	}
	return a.idx < b.idx
}

// celfHeap is a value-typed binary max-heap under celfBefore (no
// container/heap interface boxing on the hot pop/fix path).
type celfHeap []celfEntry

func (h celfHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && celfBefore(h[r], h[l]) {
			best = r
		}
		if !celfBefore(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h celfHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pop removes and returns the top entry.
func (h *celfHeap) pop() celfEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

func (h celfHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !celfBefore(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// push inserts e, restoring the heap order.
func (h *celfHeap) push(e celfEntry) {
	*h = append(*h, e)
	(*h).siftUp(len(*h) - 1)
}

// LazyGreedy is the CELF-accelerated greedy: plain Greedy's move sequence
// driven by a max-heap of stale marginal gains instead of a full candidate
// rescan per round. On monotone submodular objectives (and any objective
// with diminishing marginal gains, such as profit = submodular gain −
// additive cost) the result is byte-identical to Greedy — same Set, same
// Value — at a fraction of the oracle calls; on objectives without
// diminishing gains it is a heuristic (a stale bound may hide a better
// candidate). Feasibility must be downward-closed (supersets of an
// infeasible set stay infeasible — true of the additive budget and of
// matroid constraints), as rejected candidates are dropped for good.
//
// The initial singleton sweep fans across workers like Greedy's, written
// straight into per-worker heap shards (shardheap.go); stale entries are
// then re-evaluated either purely lazily — one sequential heap pop at a
// time — or speculatively in concurrent batches of the top-K stale
// entries (the Speculative option; on by default with Workers > 1).
// Adoption is always sequential in Greedy's exact argmax order, so Set
// and Value are byte-identical to Greedy at any worker count and any
// speculation stride; OracleCalls is identical on purely lazy runs and
// may grow by the speculation margin otherwise (reported via the
// selection.lazygreedy.speculative_{recomputes,wasted} counters).
func LazyGreedy(f Oracle, n int, opts ...Option) Result {
	co, rt := traceRun(f, "lazygreedy")
	stale := obs.Counter("selection.lazygreedy.stale_recomputes")
	adds := obs.Counter("selection.lazygreedy.adds")
	specRecomputes := obs.Counter("selection.lazygreedy.speculative_recomputes")
	specWasted := obs.Counter("selection.lazygreedy.speculative_wasted")
	ev := newEvaluator(opts)
	defer ev.close()
	var set []int
	cur := co.Value(set)

	// Initial bounds: one full singleton sweep — exactly Greedy's first
	// round, so the heap starts from the same values Greedy scans — built
	// shard-concurrently with no global scratch arrays or serial heapify.
	probe := ev.beginAdds(co, set)
	h := buildShardHeap(ev, n, cur, func(x int) (float64, bool) {
		cand := with(set, x)
		if !co.Feasible(cand) {
			return 0, false
		}
		return probe.value(cand, x), true
	})
	if ev.canceled() {
		return rt.finishErr(set, cur, ErrCanceled)
	}

	// batch carries one speculative round-trip's stale entries (entry,
	// origin shard, recompute outcome); reused across batches.
	type specProbe struct {
		e     celfEntry
		shard int
		ok    bool
	}
	var batch []specProbe
	// specPending counts speculative recomputes since the last adoption.
	// Exactly one of them becomes the next adopted argmax (every fresh
	// entry at the current round came from a batch); the rest are the
	// speculation waste charged to specWasted at adoption or exit.
	specPending := 0

	var round int32
	for h.len() > 0 {
		if ev.canceled() {
			// cur is the oracle-exact value of set after every completed
			// move, so the canceled pair is already consistent.
			return rt.finishErr(set, cur, ErrCanceled)
		}
		s, top := h.top()
		if top.gain <= 0 {
			// Even the most optimistic bound does not improve: Greedy's
			// stopping condition (no value strictly above cur — a nonzero
			// float difference never rounds to zero, so gain > 0 ⟺ val > cur).
			break
		}
		if top.round == round {
			// Fresh and on top: this is Greedy's argmax. Adopt its oracle
			// value directly (never cur + gain, which would accumulate
			// rounding).
			e := h.pop(s)
			set = with(set, int(e.idx))
			cur = e.val
			round++
			adds.Inc()
			if specPending > 0 {
				specWasted.Add(int64(specPending - 1))
				specPending = 0
			}
			probe = ev.beginAdds(co, set)
			continue
		}
		if ev.spec < 2 {
			// Purely lazy: recompute the stale top against the current
			// solution and restore the heap order. Infeasible candidates
			// leave for good (downward-closed feasibility).
			cand := with(set, int(top.idx))
			if !co.Feasible(cand) {
				h.pop(s)
				continue
			}
			v := probe.value(cand, int(top.idx))
			top.val = v
			top.gain = v - cur
			top.round = round
			stale.Inc()
			h.fix(s)
			continue
		}
		// Speculative batch: pop the top-K stale entries — the candidates
		// lazy evaluation would most plausibly touch next — recompute their
		// probes concurrently, and reinsert with fresh bounds. Adoption
		// still happens sequentially on subsequent iterations, so the
		// argmax is exactly the lazy path's; speculation only spends extra
		// probes on entries whose recompute turns out not to decide the
		// round.
		batch = batch[:0]
		for len(batch) < ev.spec && h.len() > 0 {
			bs, bt := h.top()
			if bt.round == round || bt.gain <= 0 {
				break
			}
			batch = append(batch, specProbe{e: h.pop(bs), shard: bs})
		}
		ev.sweepEager(len(batch), func(k int) {
			p := &batch[k]
			p.ok = false
			cand := with(set, int(p.e.idx))
			if !co.Feasible(cand) {
				return
			}
			v := probe.value(cand, int(p.e.idx))
			p.e.val = v
			p.e.gain = v - cur
			p.e.round = round
			p.ok = true
		})
		if ev.canceled() {
			return rt.finishErr(set, cur, ErrCanceled)
		}
		recomputed := 0
		for k := range batch {
			if batch[k].ok {
				recomputed++
				h.push(batch[k].shard, batch[k].e)
			}
		}
		stale.Add(int64(recomputed))
		specRecomputes.Add(int64(recomputed))
		specPending += recomputed
	}
	if specPending > 0 {
		// Recomputes after the last adoption only confirmed termination.
		specWasted.Add(int64(specPending))
	}
	return rt.finish(set, cur)
}

// BudgetedGreedy maximizes under the oracle's feasibility (budget)
// constraint using cost-per-unit marginals, returning the better of the
// ratio-greedy solution and the best feasible singleton. cost reports each
// candidate's (rescaled) cost.
func BudgetedGreedy(f Oracle, n int, cost func(int) float64, opts ...Option) Result {
	co, rt := traceRun(f, "budgeted")
	ev := newEvaluator(opts)
	defer ev.close()

	// Ratio greedy.
	var set []int
	cur := co.Value(set)
	taken := make([]bool, n)
	vals := make([]float64, n)
	ok := make([]bool, n)
	for {
		probe := ev.beginAdds(co, set)
		ev.sweep(n, func(x int) {
			ok[x] = false
			if taken[x] {
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
		bestIdx := -1
		bestRatio := 0.0
		bestVal := cur
		for x := 0; x < n; x++ {
			if !ok[x] {
				continue
			}
			delta := vals[x] - cur
			if delta <= 0 {
				continue
			}
			c := cost(x)
			ratio := delta
			if c > 0 {
				ratio = delta / c
			} else {
				ratio = math.Inf(1)
			}
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestRatio, bestVal = x, ratio, vals[x]
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		set = with(set, bestIdx)
		cur = bestVal
	}

	// Best feasible singleton.
	singleton, sVal := bestSingleton(co, n, ev)
	if ev.canceled() {
		return rt.finishErr(set, cur, ErrCanceled)
	}
	if singleton != nil && sVal > cur {
		set, cur = singleton, sVal
	}
	return rt.finish(set, cur)
}
