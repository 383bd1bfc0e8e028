package estimate

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"freshsource/internal/bitset"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// SetState caches everything a quality estimate derives from a candidate
// set alone — the union signatures B, Bcov and Bup, the per-point t0
// content counts, and the covering-candidate lists — so that evaluating
// single-candidate additions (the probe of every greedy-style sweep) skips
// re-unioning the whole set.
//
// Invariants:
//
//   - A SetState is immutable after construction (its per-tick cache is
//     filled lazily through atomic publication) and safe to share across
//     goroutines; parallel sweeps probe one state concurrently.
//   - QualityMultiAddInto(st, x, ts, out) requires x ∉ st's set; it layers
//     x's contribution on top of the cached unions, which double-applies
//     x's effectiveness terms if x is already a member.
//   - The state belongs to the Estimator that built it. Its tick cache
//     captures the estimator's modes (Literal, NoAlignment, SetLinearOmega)
//     when each tick is first used, so set the modes before building
//     states; a state used across a mode change mixes the two.
type SetState struct {
	e   *Estimator
	set []int

	// uB, uCov and uUp are the set's union signatures; all nil for the
	// empty set.
	uB, uCov, uUp *bitset.Set

	// covT0, upT0 and sizeT0 are |union ∩ mask_j| per query point j for the
	// Bcov, Bup and B unions.
	covT0, upT0, sizeT0 []int

	// covering[j] lists the set's candidates observing point j, in set
	// order — the multiplication order of the miss-probability products.
	covering [][]*Candidate

	// ticks caches the base set's per-tick evaluation, built lazily on
	// first use of each tick and indexed by dt = t−T0 (a flat slice, not a
	// map: the steady-state probe does one atomic load per tick, no lock
	// and no hashing).
	ticks []atomic.Pointer[tickMiss]
}

// tickMiss is the base set's evaluation at one tick. ins, del and upd hold
// the per-point miss-probability products of the covering lists over
// occurrence indices 0 … dt0−1, sharing one contiguous backing buffer with
// the shares below (one allocation per tick, sequential reads in the
// recurrence): a probe reads them in place and applies only the added
// candidate's terms instead of refolding every covering candidate — the
// O(|set|·span) → O(span) step.
// omega, cov, up and size hold what pointAt and omegaAt derive from them:
// a probe re-evaluates only the points its candidate touches and reads
// every other point's share here — the O(points) → O(touch) step.
type tickMiss struct {
	ins, del, upd [][]float64
	// omega is the set-independent E[|Ω|t] sum.
	omega float64
	// cov, up and size are the per-point shares of E[covered], E[Up] and
	// the clamped E[|F(SI)|].
	cov, up, size []float64
}

// tickAt returns the cached base evaluation for tick t, building it on
// first use. Concurrent builders may race benignly; the first stored value
// wins and all builders compute identical values. BuildTicks prebuilds a
// sweep's ticks so its probes never race here.
func (st *SetState) tickAt(t timeline.Tick) *tickMiss {
	slot := &st.ticks[int(t-st.e.T0)]
	if m := slot.Load(); m != nil {
		return m
	}
	st.BuildTicks(context.Background(), []timeline.Tick{t}, 1)
	return slot.Load()
}

// BuildTicks builds the state's tick caches for every tick of ts not yet
// built, splitting each tick's point loop across up to workers goroutines
// (≤ 1 builds on the caller's goroutine), and reports whether they are all
// built. A sweep's first probe runs it before reading ts: a probe that
// finds its tick unbuilt builds the whole tick itself, so parallel first
// probes would each build (and hold) a copy. Every point's values are
// computed exactly as the sequential build computes them, so the caches,
// and the estimate.recurrence.* and estimate.setstate.tick_builds counts,
// are identical at any worker count. When ctx is canceled the build stops
// between chunks of points and publishes none of the ticks it started, so
// a later probe builds them lazily; it then returns false.
func (st *SetState) BuildTicks(ctx context.Context, ts []timeline.Tick, workers int) bool {
	e := st.e
	e.checkTicks(ts)
	type build struct {
		t timeline.Tick
		m *tickMiss
	}
	var todo []build
	for _, t := range ts {
		if st.ticks[int(t-e.T0)].Load() != nil || slices.ContainsFunc(todo, func(b build) bool { return b.t == t }) {
			continue
		}
		todo = append(todo, build{t, st.newTick(t)})
	}
	if len(todo) == 0 {
		return true
	}
	nPts := len(e.points)
	// Each tick's points are dealt in chunks, a few per worker so uneven
	// covering lists still balance.
	chunk := max(1, nPts/(4*max(1, workers)))
	perTick := (nPts + chunk - 1) / chunk
	terms := make([]int64, len(todo)*perTick)
	job := func(k int) {
		b := todo[k/perTick]
		lo := (k % perTick) * chunk
		terms[k] = st.fillTick(b.m, b.t, lo, min(lo+chunk, nPts))
	}
	deal(ctx, workers, len(terms), job)
	if ctx.Err() != nil {
		return false
	}
	for i, b := range todo {
		if obs.Enabled() {
			var sum int64
			for _, n := range terms[i*perTick : (i+1)*perTick] {
				sum += n
			}
			obs.Counter("estimate.setstate.tick_builds").Add(1)
			obs.Counter("estimate.recurrence.steps").Add(int64(int(b.t-e.T0) * nPts))
			obs.Counter("estimate.recurrence.cand_terms").Add(sum)
		}
		// A concurrent builder may have published first; its values are
		// the same.
		st.ticks[int(b.t-e.T0)].CompareAndSwap(nil, b.m)
	}
	return true
}

// newTick allocates the base set's evaluation at tick t: the per-point
// miss products (all ones) and shares, filled by fillTick.
func (st *SetState) newTick(t timeline.Tick) *tickMiss {
	e := st.e
	dt0 := int(t - e.T0)
	nPts := len(e.points)
	m := &tickMiss{
		ins:   make([][]float64, nPts),
		del:   make([][]float64, nPts),
		upd:   make([][]float64, nPts),
		omega: e.omegaAt(t),
	}
	buf := make([]float64, 3*nPts*(1+dt0))
	m.cov, m.up, m.size = buf[:nPts:nPts], buf[nPts:2*nPts:2*nPts], buf[2*nPts:3*nPts:3*nPts]
	buf = buf[3*nPts:]
	for i := range buf {
		buf[i] = 1
	}
	for j := range e.points {
		m.ins[j], m.del[j], m.upd[j] = buf[:dt0:dt0], buf[dt0:2*dt0:2*dt0], buf[2*dt0:3*dt0:3*dt0]
		buf = buf[3*dt0:]
	}
	return m
}

// fillTick folds the covering lists' effectiveness terms at tick t for
// points [lo, hi), in covering order — exactly the products QualityMulti
// folds from scratch — and evaluates each point from them through the
// shared pointAt. It returns the number of candidate terms folded. Points
// own disjoint rows of m, so disjoint ranges may fill concurrently.
func (st *SetState) fillTick(m *tickMiss, t timeline.Tick, lo, hi int) int64 {
	e := st.e
	dt0 := int(t - e.T0)
	var terms int64
	for j := lo; j < hi; j++ {
		ins, del, upd := m.ins[j], m.del[j], m.upd[j]
		for _, c := range st.covering[j] {
			terms += e.candidateMiss(c, t, dt0, ins, del, upd)
		}
		m.cov[j], m.up[j], m.size[j] = e.pointAt(j, dt0, st.covT0[j], st.upT0[j], st.sizeT0[j], ins, del, upd, nil)
	}
	return terms
}

// Set returns the candidate set the state was built from (not a copy; do
// not mutate).
func (st *SetState) Set() []int { return st.set }

// NewSetState builds the cached state of a candidate set. The work is the
// same as the set-dependent prefix of QualityMulti: one signature union
// pass plus 3·|points| intersect counts, each over its point's mask window.
func (e *Estimator) NewSetState(set []int) *SetState {
	st := &SetState{
		e:     e,
		set:   append([]int(nil), set...),
		ticks: make([]atomic.Pointer[tickMiss], int(e.MaxT-e.T0)+1),
	}

	// Union signatures over the set (deduplicating shared signatures is
	// unnecessary: union is idempotent).
	for _, i := range set {
		p := e.cands[i].Profile
		if st.uB == nil {
			st.uB, st.uCov, st.uUp = p.B.Clone(), p.Bcov.Clone(), p.Bup.Clone()
			continue
		}
		st.uB.UnionWith(p.B)
		st.uCov.UnionWith(p.Bcov)
		st.uUp.UnionWith(p.Bup)
	}

	// Per-point t0 content counts and covering-candidate lists, computed
	// once per set.
	nPts := len(e.points)
	counts := make([]int, 3*nPts)
	st.covT0, st.upT0, st.sizeT0 = counts[:nPts:nPts], counts[nPts:2*nPts:2*nPts], counts[2*nPts:]
	st.covering = make([][]*Candidate, nPts)
	if st.uB != nil {
		for j, mask := range e.masks {
			w := e.maskWin[j]
			st.covT0[j] = bitset.IntersectCountIn(st.uCov, mask, w.lo, w.hi)
			st.upT0[j] = bitset.IntersectCountIn(st.uUp, mask, w.lo, w.hi)
			st.sizeT0[j] = bitset.IntersectCountIn(st.uB, mask, w.lo, w.hi)
		}
	}
	for j := range e.points {
		for _, i := range set {
			if e.cands[i].covers[j] {
				st.covering[j] = append(st.covering[j], e.cands[i])
			}
		}
	}

	if obs.Enabled() {
		obs.Counter("estimate.setstate.builds").Add(1)
		if n := len(set); n > 1 {
			obs.Counter("estimate.signature.unions").Add(int64(3 * (n - 1)))
		}
		if st.uB != nil {
			obs.Counter("estimate.signature.intersects").Add(int64(3 * nPts))
		}
	}
	return st
}

// QualityMultiState estimates the quality of st's own set at the given
// ticks from the cached state: each tick's per-point shares come from the
// state's lazily built tick cache and are summed in point order, so
// re-evaluating one set across repeated or overlapping Tf vectors runs no
// recurrence after a tick's first use. The result is bit-identical to
// QualityMulti(st.Set(), ts) — the cached shares are the same floats
// pointAt computes there, summed in the same order. This is the warm path
// of a serving registry keeping SetStates keyed by (set, Tf).
func (e *Estimator) QualityMultiState(st *SetState, ts []timeline.Tick) []QualityEstimate {
	sp := obs.Start("estimate.quality_state.seconds")
	e.checkTicks(ts)

	out := make([]QualityEstimate, len(ts))
	for k, t := range ts {
		base := st.tickAt(t)
		var covered, up, size float64
		for j := range base.cov {
			covered += base.cov[j]
			up += base.up[j]
			size += base.size[j]
		}
		out[k] = finishQuality(base.omega, covered, up, size)
	}

	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.state_calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
	}
	return out
}

// QualityMultiAddInto estimates the quality of st's set ∪ {x} at the given
// ticks without rebuilding the set's unions, and writes the estimates into
// out when it has capacity for len(ts) of them (allocating otherwise). It
// returns the filled slice. The result is bit-identical to
// QualityMulti(append(set, x), ts).
//
// Only the points on x's touch list can differ from the base set, so only
// those are re-evaluated: x's t0 contribution per point is a fused
// triple-popcount count(x ∧ mask ∧ ¬union) over the point's mask window,
// and its effectiveness terms layer after the cached covering lists'.
// Every other point's share is read from the state's tick cache, and all
// shares are summed in point order — the order QualityMulti sums them in.
//
// x must not already be a member of st's set (see the SetState
// invariants). Safe for concurrent calls sharing one state. With a warmed
// state (every tick's cache built) and a reusable out buffer, the probe
// performs no heap allocation at all.
func (e *Estimator) QualityMultiAddInto(st *SetState, x int, ts []timeline.Tick, out []QualityEstimate) []QualityEstimate {
	sp := obs.Start("estimate.quality_add.seconds")
	e.checkTicks(ts)
	xc := e.cands[x]
	xp := xc.Profile
	touch := xc.touch
	if touch == nil {
		panic(fmt.Sprintf("estimate: candidate %d has no touch list", x))
	}

	scratch := e.getScratch()

	// Adjusted t0 counts at the touched points: cached count + what x adds
	// beyond the union. The count buffer lives in the pooled scratch, not a
	// per-probe allocation.
	cnt := scratch.cnt[:3*len(touch)]
	for k, j := range touch {
		mask, w := e.masks[j], e.maskWin[j]
		if st.uB == nil {
			cnt[3*k] = bitset.IntersectCountIn(xp.Bcov, mask, w.lo, w.hi)
			cnt[3*k+1] = bitset.IntersectCountIn(xp.Bup, mask, w.lo, w.hi)
			cnt[3*k+2] = bitset.IntersectCountIn(xp.B, mask, w.lo, w.hi)
		} else {
			cnt[3*k] = st.covT0[j] + bitset.IntersectAndNotCountIn(xp.Bcov, mask, st.uCov, w.lo, w.hi)
			cnt[3*k+1] = st.upT0[j] + bitset.IntersectAndNotCountIn(xp.Bup, mask, st.uUp, w.lo, w.hi)
			cnt[3*k+2] = st.sizeT0[j] + bitset.IntersectAndNotCountIn(xp.B, mask, st.uB, w.lo, w.hi)
		}
	}

	if cap(out) >= len(ts) {
		out = out[:len(ts)]
	} else {
		out = make([]QualityEstimate, len(ts))
	}
	for k, t := range ts {
		base := st.tickAt(t)
		dt0 := int(t - e.T0)
		terms := e.addTermsAt(xc, t, scratch)
		var covered, up, size float64
		next := 0 // position in touch of the next point to re-evaluate
		for j := range base.cov {
			pc, pu, ps := base.cov[j], base.up[j], base.size[j]
			if next < len(touch) && int(touch[next]) == j {
				var xt *addTerms
				if xc.covers[j] {
					xt = &terms
					scratch.candTerms += int64(len(terms.fi))
				}
				pc, pu, ps = e.pointAt(j, dt0, cnt[3*next], cnt[3*next+1], cnt[3*next+2], base.ins[j], base.del[j], base.upd[j], xt)
				next++
			}
			covered += pc
			up += pu
			size += ps
		}
		scratch.steps += int64(dt0 * len(touch))
		out[k] = finishQuality(base.omega, covered, up, size)
	}

	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.add_calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
		obs.Counter("estimate.probe.points_touched").Add(int64(len(touch)))
		obs.Counter("estimate.signature.kernel_counts").Add(int64(3 * len(touch)))
		obs.Counter("estimate.recurrence.steps").Add(scratch.steps)
		obs.Counter("estimate.recurrence.cand_terms").Add(scratch.candTerms)
	}
	e.putScratch(scratch)
	return out
}
