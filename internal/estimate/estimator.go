package estimate

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"freshsource/internal/bitset"
	"freshsource/internal/metrics"
	"freshsource/internal/obs"
	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Candidate is one selectable unit: a source profile at a specific
// acquisition divisor (the augmented sources S^m of Definition 4). The
// basic problem uses divisor 1.
type Candidate struct {
	// Profile carries the signatures, effectiveness distributions and
	// acquisition schedule.
	Profile *profile.Profile
	// SourceIndex identifies the underlying source; all frequency variants
	// of one source share it (the rank-1 partition classes of Section 5).
	SourceIndex int
	// covers flags which of the estimator's query points the source
	// observes.
	covers []bool
	// touch lists, ascending, the query points whose estimate the candidate
	// can change when it joins a set (see touchOf); a probe re-evaluates
	// only these and reads the base set's cached values elsewhere.
	touch []int32
	// gi, gd and gu tabulate the effectiveness CDFs at integer delays
	// 0 … maxDelay; variants of one source share the tables.
	gi, gd, gu []float64
}

// Name returns the candidate's display name.
func (c *Candidate) Name() string { return c.Profile.Name }

// Divisor returns the candidate's acquisition divisor.
func (c *Candidate) Divisor() int { return c.Profile.AcqDivisor }

// QualityEstimate is the estimated quality vector of an integration result
// at one future tick.
type QualityEstimate struct {
	Coverage        float64
	LocalFreshness  float64
	GlobalFreshness float64
	Accuracy        float64

	// ExpectedOmega is E[|Ω|t] (Eq. 14).
	ExpectedOmega float64
	// ExpectedSize is E[|F(SI)|t] (Eq. 18).
	ExpectedSize float64
	// ExpectedUp is E[Up(F(SI), t)].
	ExpectedUp float64
	// ExpectedCovered is E[OldCov] + E[Ins] (the numerator of Eq. 12).
	ExpectedCovered float64
}

// Estimator estimates integration quality for sets of candidates over a
// query domain at future ticks in (t0, maxT].
type Estimator struct {
	// T0 is the end of the training window.
	T0 timeline.Tick
	// MaxT is the largest future tick the estimator supports.
	MaxT timeline.Tick
	// Literal switches the E[InsUp]/E[ExUp] survival exponents to the
	// paper's printed (t−t0) form; the default uses the occurrence time τ.
	Literal bool
	// NoAlignment disables the TS(t) schedule alignment of Eq. 8 (ablation:
	// pretend every source exposes changes the moment it learns them).
	NoAlignment bool
	// linearOmega switches E[|Ω|t] to the paper-literal constant-λd drift
	// of Eq. 14; toggled via SetLinearOmega, which rebuilds the intensity
	// tables.
	linearOmega bool

	points []world.DomainPoint
	models []*WorldModel
	masks  []*bitset.Set
	cands  []*Candidate
	// maskWin[j] is masks[j]'s nonzero word window: every per-point count
	// reads only those words (about two on the served BL world, against
	// the 1,167 words of its entity universe).
	maskWin []wordSpan

	// Per-model lookup tables over the future window, indexed by dt = t−T0
	// (survival) or τ−T0 (intensities): they keep the hot estimation loop
	// free of math.Exp calls.
	survDel, survUpd       [][]float64
	lamIns, lamDel, lamUpd [][]float64

	// scratch pools the per-call miss-probability buffers so concurrent
	// quality queries (parallel candidate sweeps) stay allocation-light.
	scratch sync.Pool
}

// wordSpan is a half-open window [lo, hi) of bitset backing words.
type wordSpan struct{ lo, hi int }

// New builds an estimator for the query domain pts (nil = every point of
// the world): it fits one world model per point and one profile per source,
// all on the training window [0, t0]. maxT bounds the future ticks that may
// be queried.
func New(w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint) (*Estimator, error) {
	return NewContext(context.Background(), w, srcs, t0, maxT, pts)
}

// NewContext is New with cancellation: a fired context stops launching
// model and profile fits and returns ctx.Err() once the in-flight fits
// drain. Long-running servers use it to bound on-demand refits by the
// requesting call's deadline.
func NewContext(ctx context.Context, w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint) (*Estimator, error) {
	return NewFit(ctx, w, srcs, t0, maxT, pts, FitOptions{})
}

// NewFit is the configurable fit pipeline behind New and NewContext: the
// per-subdomain world-model MLEs (Eq. 6–7), per-source Kaplan–Meier
// effectiveness fits (Eq. 8) and per-candidate signature/tabulation work
// run across a bounded worker pool (see FitOptions.Workers). Results land
// in pre-sized slots, so the fitted Estimator is byte-identical to a
// sequential build at any worker count.
func NewFit(ctx context.Context, w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) (*Estimator, error) {
	if len(srcs) == 0 {
		return nil, errors.New("estimate: no sources")
	}
	if maxT <= t0 {
		return nil, fmt.Errorf("estimate: maxT %d must exceed t0 %d", maxT, t0)
	}
	if pts == nil {
		pts = w.Points()
	}
	e := &Estimator{T0: t0, MaxT: maxT, points: pts}
	e.allocModelSlots()
	workers := opt.workers()
	obs.Gauge("estimate.fit.workers").Set(float64(workers))
	defer obs.Start("estimate.fit.seconds").End()

	// World models per query point are independent; fan them across the
	// pool.
	fitSpan := obs.Start("estimate.fit.models.seconds")
	{
		errs := make([]error, len(pts))
		fitSweep(ctx, workers, len(pts), func(j int) {
			m, err := FitWorldPoint(w, t0, pts[j])
			if err != nil {
				errs[j] = err
				return
			}
			e.setModel(j, m, w)
		})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("estimate: model fit canceled: %w", err)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	fitSpan.EndWithCount(obs.Counter("estimate.fit.points"), int64(len(pts)))

	// Profiles are independent; fan them across the same pool. Results
	// land at fixed indices, so the estimator stays deterministic.
	profSpan := obs.Start("estimate.fit.profiles.seconds")
	maxDelay := int(maxT - t0 + 1)
	e.cands = make([]*Candidate, len(srcs))
	errs := make([]error, len(srcs))
	fitSweep(ctx, workers, len(srcs), func(i int) {
		c, err := e.buildCandidate(w, srcs[i], i, maxDelay)
		if err != nil {
			errs[i] = err
			return
		}
		e.cands[i] = c
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: profile fit canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	profSpan.EndWithCount(obs.Counter("estimate.fit.profiles"), int64(len(srcs)))
	e.compactTables()
	return e, nil
}

// compactTables repacks every candidate's tabulated effectiveness tables
// and coverage flags into two contiguous arenas (one []float64, one []bool)
// ordered by candidate index. Per-candidate fit allocates each table
// separately, scattering 15k×3 small slices across the heap; the arena puts
// the data the selection probe walks in candidate order into sequential
// memory and drops the allocation count to two. Each candidate's slices are
// re-sliced full-capacity views into the arena, so pointer identity of
// &c.gi[0] etc. is stable afterwards — AddFrequencyVariants copies these
// slice headers, which is why the repack must run before variants are added
// (both fit and cache-load paths do; the aliasing is pinned by
// TestFrequencyVariantsShareTables).
func (e *Estimator) compactTables() {
	var nf, nb int
	for _, c := range e.cands {
		nf += len(c.gi) + len(c.gd) + len(c.gu)
		nb += len(c.covers)
	}
	if nf == 0 && nb == 0 {
		return
	}
	fa := make([]float64, 0, nf)
	ba := make([]bool, 0, nb)
	takeF := func(s []float64) []float64 {
		off := len(fa)
		fa = append(fa, s...)
		return fa[off:len(fa):len(fa)]
	}
	for _, c := range e.cands {
		c.gi = takeF(c.gi)
		c.gd = takeF(c.gd)
		c.gu = takeF(c.gu)
		off := len(ba)
		ba = append(ba, c.covers...)
		c.covers = ba[off:len(ba):len(ba)]
	}
}

// allocModelSlots pre-sizes the per-point model, mask and lookup-table
// slots for e.points.
func (e *Estimator) allocModelSlots() {
	n := len(e.points)
	e.models = make([]*WorldModel, n)
	e.masks = make([]*bitset.Set, n)
	e.maskWin = make([]wordSpan, n)
	e.survDel = make([][]float64, n)
	e.survUpd = make([][]float64, n)
	e.lamIns = make([][]float64, n)
	e.lamDel = make([][]float64, n)
	e.lamUpd = make([][]float64, n)
}

// setModel installs a fitted world model at slot j: the per-point entity
// mask plus the survival/intensity lookup tables over the future window.
// It is the single table-building path shared by the fit pipeline and the
// model-cache load (FromFitted), so a cache-loaded estimator's tables are
// byte-identical to a freshly fitted one's.
func (e *Estimator) setModel(j int, m *WorldModel, w *world.World) {
	e.models[j] = m
	mask := bitset.New(w.NumEntities())
	for _, id := range w.EntitiesOf(m.Point) {
		mask.Add(int(id))
	}
	e.masks[j] = mask
	lo, hi := mask.WordSpan()
	e.maskWin[j] = wordSpan{lo, hi}

	span := int(e.MaxT-e.T0) + 1
	sd := make([]float64, span)
	su := make([]float64, span)
	li := make([]float64, span)
	ld := make([]float64, span)
	lu := make([]float64, span)
	for dt := 0; dt < span; dt++ {
		sd[dt] = m.SurvivalDel(timeline.Tick(dt))
		su[dt] = m.SurvivalUpd(timeline.Tick(dt))
		li[dt] = m.LambdaInsAt(e.T0 + timeline.Tick(dt))
		ld[dt] = m.LambdaDelAt(e.T0 + timeline.Tick(dt))
		lu[dt] = m.LambdaUpdAt(e.T0 + timeline.Tick(dt))
	}
	e.survDel[j] = sd
	e.survUpd[j] = su
	e.lamIns[j] = li
	e.lamDel[j] = ld
	e.lamUpd[j] = lu
}

// buildCandidate profiles one source and tabulates its effectiveness
// tables — the per-candidate unit of the fit pipeline.
func (e *Estimator) buildCandidate(w *world.World, s *source.Source, i int, maxDelay int) (*Candidate, error) {
	prof, err := profile.Build(w, s, e.T0, e.points)
	if err != nil {
		return nil, err
	}
	return e.candidateFromProfile(prof, s, i, maxDelay), nil
}

// candidateFromProfile wraps a fitted profile into a Candidate: coverage
// flags from the source spec, the tabulated effectiveness tables and the
// touch list. It is shared by the cold fit pipeline, the incremental
// Accumulator and the cold-start path, so all derive candidates through
// identical code. The point masks must already be installed (setModel).
func (e *Estimator) candidateFromProfile(prof *profile.Profile, s *source.Source, i int, maxDelay int) *Candidate {
	covered := make(map[world.DomainPoint]bool, len(s.Spec().Points))
	for _, p := range s.Spec().Points {
		covered[p] = true
	}
	c := &Candidate{Profile: prof, SourceIndex: i, covers: make([]bool, len(e.points))}
	for j, p := range e.points {
		c.covers[j] = covered[p]
	}
	c.gi = tabulate(prof.Gi, maxDelay)
	c.gd = tabulate(prof.Gd, maxDelay)
	c.gu = tabulate(prof.Gu, maxDelay)
	c.touch = e.touchOf(c)
	return c
}

// touchOf lists, ascending, the query points a candidate can change when it
// joins a set: the points it covers (its effectiveness terms fold into the
// point's miss products) and the points whose mask meets its B, Bcov or Bup
// signature (it can add t0 content there). At every other point the
// estimate of set ∪ {c} equals the set's own, which is what lets a probe
// skip the point. Every path that creates a candidate derives the list
// here; the list is never nil, so a candidate that missed this step is
// caught by the probe instead of silently dropping points.
func (e *Estimator) touchOf(c *Candidate) []int32 {
	p := c.Profile
	touch := make([]int32, 0, len(e.points))
	for j, mask := range e.masks {
		w := e.maskWin[j]
		if c.covers[j] ||
			bitset.IntersectCountIn(p.B, mask, w.lo, w.hi) > 0 ||
			bitset.IntersectCountIn(p.Bcov, mask, w.lo, w.hi) > 0 ||
			bitset.IntersectCountIn(p.Bup, mask, w.lo, w.hi) > 0 {
			touch = append(touch, int32(j))
		}
	}
	return touch[:len(touch):len(touch)]
}

// tabulate samples a Kaplan–Meier CDF at integer delays 0 … maxDelay with
// a single merge walk over the step points (O(maxDelay + steps) instead of
// a binary search per delay); the values are exactly CDF(d). A nil
// distribution (no observations) tabulates to zero effectiveness.
func tabulate(km *stats.KaplanMeier, maxDelay int) []float64 {
	out := make([]float64, maxDelay+1)
	if km == nil {
		return out
	}
	times, cdf := km.Steps()
	k := 0
	cur := 0.0
	for d := 0; d <= maxDelay; d++ {
		for k < len(times) && times[k] <= float64(d) {
			cur = cdf[k]
			k++
		}
		out[d] = cur
	}
	return out
}

// SetLinearOmega switches between the ODE-consistent world-size model
// (default) and the paper-literal constant-λd drift of Eq. 14, rebuilding
// the intensity tables accordingly. Part of the ablation study.
func (e *Estimator) SetLinearOmega(on bool) {
	if e.linearOmega == on {
		return
	}
	e.linearOmega = on
	span := int(e.MaxT-e.T0) + 1
	for j, m := range e.models {
		for dt := 0; dt < span; dt++ {
			if on {
				e.lamDel[j][dt] = m.LambdaDel
				e.lamUpd[j][dt] = m.LambdaUpd
			} else {
				e.lamDel[j][dt] = m.LambdaDelAt(e.T0 + timeline.Tick(dt))
				e.lamUpd[j][dt] = m.LambdaUpdAt(e.T0 + timeline.Tick(dt))
			}
		}
	}
}

// AddFrequencyVariants appends, for every base candidate (divisor 1),
// variants acquired at each of the given divisors. It returns the total
// number of candidates.
//
// Variants alias their base's tabulated effectiveness tables, coverage
// flags, touch list and signature bitsets rather than recomputing them —
// the tables describe the underlying source, not the acquisition schedule,
// so the O(variants × maxDelay) re-tabulation would be pure waste (and the
// persistent model cache leans on the same invariant: it stores only
// divisor-1 candidates and re-derives variants on load). The aliasing is
// pinned by TestFrequencyVariantsShareTables.
func (e *Estimator) AddFrequencyVariants(divisors []int) (int, error) {
	base := len(e.cands)
	for i := 0; i < base; i++ {
		c := e.cands[i]
		if c.Divisor() != 1 {
			continue
		}
		for _, m := range divisors {
			if m <= 1 {
				continue
			}
			prof, err := c.Profile.WithDivisor(m)
			if err != nil {
				return 0, err
			}
			e.cands = append(e.cands, &Candidate{
				Profile:     prof,
				SourceIndex: c.SourceIndex,
				covers:      c.covers,
				touch:       c.touch,
				gi:          c.gi,
				gd:          c.gd,
				gu:          c.gu,
			})
		}
	}
	obs.Counter("estimate.variants.added").Add(int64(len(e.cands) - base))
	// Three effectiveness tables shared (not re-tabulated) per variant.
	obs.Counter("estimate.variants.tables_shared").Add(int64(3 * (len(e.cands) - base)))
	return len(e.cands), nil
}

// NumCandidates returns the number of selectable candidates.
func (e *Estimator) NumCandidates() int { return len(e.cands) }

// Candidate returns the i-th candidate.
func (e *Estimator) Candidate(i int) *Candidate { return e.cands[i] }

// Points returns the estimator's query domain.
func (e *Estimator) Points() []world.DomainPoint { return e.points }

// Model returns the world model of the i-th query point.
func (e *Estimator) Model(i int) *WorldModel { return e.models[i] }

// eff evaluates one tabulated effectiveness CDF under the Eq. 8 alignment.
func (c *Candidate) eff(tab []float64, t, tc timeline.Tick) float64 {
	ts := c.Profile.TS(t)
	if ts < tc {
		return 0
	}
	d := int(ts - tc)
	if d >= len(tab) {
		d = len(tab) - 1
	}
	return tab[d]
}

// Quality estimates the quality of integrating the candidate set at tick t.
// set holds candidate indices.
func (e *Estimator) Quality(set []int, t timeline.Tick) QualityEstimate {
	return e.QualityMulti(set, []timeline.Tick{t})[0]
}

// QualityMulti estimates quality at several future ticks, computing the
// signature unions once. Ticks must lie in [T0, MaxT].
//
// It is safe for concurrent use: parallel candidate sweeps may probe the
// estimator from many goroutines at once.
func (e *Estimator) QualityMulti(set []int, ts []timeline.Tick) []QualityEstimate {
	sp := obs.Start("estimate.quality.seconds")
	e.checkTicks(ts)
	st := e.NewSetState(set)

	scratch := e.getScratch()
	out := make([]QualityEstimate, len(ts))
	for k, t := range ts {
		dt0 := int(t - e.T0)
		missIns, missDel, missUpd := scratch.ins[:dt0], scratch.del[:dt0], scratch.upd[:dt0]
		var covered, up, size float64
		for j := range e.points {
			// Fold every covering candidate into the scratch miss buffers
			// (Eq. 9–11), one pass per candidate, then run the recurrence.
			for i := range missIns {
				missIns[i], missDel[i], missUpd[i] = 1, 1, 1
			}
			for _, c := range st.covering[j] {
				scratch.candTerms += e.candidateMiss(c, t, dt0, missIns, missDel, missUpd)
			}
			pc, pu, ps := e.pointAt(j, dt0, st.covT0[j], st.upT0[j], st.sizeT0[j], missIns, missDel, missUpd, nil)
			covered += pc
			up += pu
			size += ps
		}
		scratch.steps += int64(dt0 * len(e.points))
		out[k] = finishQuality(e.omegaAt(t), covered, up, size)
	}

	// Telemetry, batched: one set of counter adds per estimate call, so
	// the per-iteration recurrence loops above stay uninstrumented.
	sp.End()
	if obs.Enabled() {
		obs.Counter("estimate.quality.calls").Add(1)
		obs.Counter("estimate.quality.ticks").Add(int64(len(ts)))
		obs.Counter("estimate.quality.set_size").Add(int64(len(set)))
		obs.Counter("estimate.recurrence.steps").Add(scratch.steps)
		obs.Counter("estimate.recurrence.cand_terms").Add(scratch.candTerms)
	}
	e.putScratch(scratch)
	return out
}

func (e *Estimator) checkTicks(ts []timeline.Tick) {
	for _, t := range ts {
		if t < e.T0 || t > e.MaxT {
			panic(fmt.Sprintf("estimate: tick %d outside [%d, %d]", t, e.T0, e.MaxT))
		}
	}
}

type missBuffers struct {
	ins, del, upd []float64
	// fi, fd and fu back a probe's added-candidate miss factors at one
	// tick (see addTermsAt).
	fi, fd, fu []float64
	// cnt backs the probe's adjusted t0 count triples, one per touched
	// point (at most 3·|points| ints), so a probe borrows it from the pool
	// instead of allocating.
	cnt []int
	// steps counts Eq. 12–19 recurrence iterations and candTerms the
	// per-covering-candidate effectiveness terms, accumulated over one
	// QualityMulti or probe call and flushed to obs counters at its end.
	steps, candTerms int64
}

// getScratch takes a zeroed miss-buffer set from the pool.
func (e *Estimator) getScratch() *missBuffers {
	if v := e.scratch.Get(); v != nil {
		b := v.(*missBuffers)
		b.steps, b.candTerms = 0, 0
		return b
	}
	span := int(e.MaxT - e.T0)
	buf := make([]float64, 6*span)
	return &missBuffers{
		ins: buf[:span:span],
		del: buf[span : 2*span : 2*span],
		upd: buf[2*span : 3*span : 3*span],
		fi:  buf[3*span : 4*span : 4*span],
		fd:  buf[4*span : 5*span : 5*span],
		fu:  buf[5*span:],
		cnt: make([]int, 3*len(e.points)),
	}
}

func (e *Estimator) putScratch(b *missBuffers) { e.scratch.Put(b) }

// candidateMiss folds one covering candidate's effectiveness into the miss
// probabilities over occurrence indices 0 … dt0−1 (Eq. 9–11), returning the
// number of per-candidate terms applied. Keeping this in one place
// guarantees a SetState's cached products multiply bit-identically to the
// from-scratch path's.
func (e *Estimator) candidateMiss(c *Candidate, t timeline.Tick, dt0 int, missIns, missDel, missUpd []float64) int64 {
	ts := c.Profile.TS(t)
	if e.NoAlignment {
		ts = t
	}
	// eff(τ) = tab[ts−τ] for τ ≤ ts; zero beyond.
	iMax := int(ts - e.T0 - 1) // largest i with τ = T0+1+i ≤ ts
	if iMax >= dt0 {
		iMax = dt0 - 1
	}
	cv := c.Profile.CoverageT0
	for i := 0; i <= iMax; i++ {
		d := int(ts-e.T0) - 1 - i
		missIns[i] *= 1 - c.gi[d]
		missDel[i] *= 1 - cv*c.gd[d]
		missUpd[i] *= 1 - cv*c.gu[d]
	}
	return int64(iMax + 1)
}

// addTerms is one added candidate's miss factors at one tick, over the
// occurrence indices 0 … len(fi)−1 its effectiveness reaches: fi[i],
// fd[i] and fu[i] are the factors candidateMiss would multiply into the
// products at index i — the same floats, so a probe that multiplies them
// in last reproduces a fold with the candidate appended, bit for bit.
type addTerms struct {
	fi, fd, fu []float64
}

// addTermsAt writes candidate c's miss factors at tick t into the pooled
// scratch, in occurrence order. The alignment, and so the factors, are
// per-tick, not per-point: the probe derives them once per tick and every
// touched point it covers reads them forward.
func (e *Estimator) addTermsAt(c *Candidate, t timeline.Tick, scratch *missBuffers) addTerms {
	dt0 := int(t - e.T0)
	ts := c.Profile.TS(t)
	if e.NoAlignment {
		ts = t
	}
	n := int(ts - e.T0) // occurrence indices reached: τ = T0+1+i ≤ ts
	if n > dt0 {
		n = dt0
	}
	if n < 0 {
		n = 0
	}
	// eff(τ) = tab[ts−τ] for τ ≤ ts (mirrors candidateMiss); d runs from
	// ts−T0−1 down.
	fi, fd, fu := scratch.fi[:n], scratch.fd[:n], scratch.fu[:n]
	gi, gd, gu := c.gi, c.gd, c.gu
	cv := c.Profile.CoverageT0
	d0 := int(ts-e.T0) - 1
	for i := range fi {
		d := d0 - i
		fi[i] = 1 - gi[d]
		fd[i] = 1 - cv*gd[d]
		fu[i] = 1 - cv*gu[d]
	}
	return addTerms{fi: fi, fd: fd, fu: fu}
}

// pointAt evaluates Equations 13, 15 and 19 at query point j and tick
// T0+dt0, returning the point's shares of E[covered] (E[OldCov] + E[Ins]),
// E[Up] and E[|F(SI)|] (clamped at 0). covT0, upT0 and sizeT0 are the
// point's t0 counts; mIns, mDel and mUpd the miss-probability products of
// its covering candidates over occurrence indices 0 … dt0−1. x, when
// non-nil, is one more covering candidate whose factors multiply into the
// products on the fly — reading them in place, never writing — after the
// products' own terms: op for op the float sequence of a fold with x
// appended last.
//
// It is the one place these sums are computed: the from-scratch
// (QualityMulti), cached-state (SetState's tick cache) and add
// (QualityMultiAddInto) paths all call it, so their arithmetic is
// textually identical, which keeps the compiler's fused multiply-add
// choices identical too.
func (e *Estimator) pointAt(j, dt0, covT0, upT0, sizeT0 int, mIns, mDel, mUpd []float64, x *addTerms) (cov, up, size float64) {
	survDel, survUpd := e.survDel[j], e.survUpd[j]
	// λ(τ) is read at τ−T0 = i+1.
	lamIns, lamDel, lamUpd := e.lamIns[j][1:dt0+1], e.lamDel[j][1:dt0+1], e.lamUpd[j][1:dt0+1]
	mIns, mDel, mUpd = mIns[:dt0], mDel[:dt0], mUpd[:dt0]

	// Eq. 13: surviving covered content from t0, and E[OldUp]: survived
	// and unchanged.
	oldCov := float64(covT0) * survDel[dt0]
	oldUp := float64(upT0) * survDel[dt0] * survUpd[dt0]

	// Eq. 15, Eq. 19, and the E[InsUp]/E[ExUp] sums, with the time-varying
	// λi(τ) (seasonal subdomains), λd(τ), λu(τ), over occurrence indices i
	// (τ = T0+1+i, t−τ = dt0−1−i). The sums split at the last index x's
	// factors reach, and the Literal mode's constant survival is hoisted,
	// so every loop is branch-free; each keeps the one summation order. The
	// float64 conversions round each product with x's factor before its
	// use, as the stored products of a fold with x appended are rounded,
	// so no fused multiply-add can skip that rounding.
	var fi, fd, fu []float64
	if x != nil {
		fi, fd, fu = x.fi, x.fd[:len(x.fi)], x.fu[:len(x.fi)]
	}
	n := len(fi)
	var ins, del, insUp, exUp float64
	if e.Literal {
		sd, su := survDel[dt0], survUpd[dt0]
		for i, f := range fi {
			prIns := 1 - float64(mIns[i]*f)
			ins += lamIns[i] * survDel[dt0-1-i] * prIns
			del += lamDel[i] * (1 - float64(mDel[i]*fd[i]))
			insUp += lamIns[i] * sd * su * prIns
			exUp += lamUpd[i] * sd * su * (1 - float64(mUpd[i]*fu[i]))
		}
		for i := n; i < dt0; i++ {
			prIns := 1 - mIns[i]
			ins += lamIns[i] * survDel[dt0-1-i] * prIns
			del += lamDel[i] * (1 - mDel[i])
			insUp += lamIns[i] * sd * su * prIns
			exUp += lamUpd[i] * sd * su * (1 - mUpd[i])
		}
	} else {
		for i, f := range fi {
			sd, su := survDel[dt0-1-i], survUpd[dt0-1-i]
			prIns := 1 - float64(mIns[i]*f)
			ins += lamIns[i] * sd * prIns
			del += lamDel[i] * (1 - float64(mDel[i]*fd[i]))
			insUp += lamIns[i] * sd * su * prIns
			exUp += lamUpd[i] * sd * su * (1 - float64(mUpd[i]*fu[i]))
		}
		for i := n; i < dt0; i++ {
			sd, su := survDel[dt0-1-i], survUpd[dt0-1-i]
			prIns := 1 - mIns[i]
			ins += lamIns[i] * sd * prIns
			del += lamDel[i] * (1 - mDel[i])
			insUp += lamIns[i] * sd * su * prIns
			exUp += lamUpd[i] * sd * su * (1 - mUpd[i])
		}
	}

	cov = oldCov + ins
	up = oldUp + insUp + exUp
	size = float64(sizeT0) + ins - del
	if size < 0 {
		size = 0
	}
	return cov, up, size
}

// omegaAt is E[|Ω|t] (Eq. 14) summed over the query points in index order;
// it does not depend on the candidate set.
func (e *Estimator) omegaAt(t timeline.Tick) float64 {
	var omega float64
	for _, m := range e.models {
		if e.linearOmega {
			omega += m.ExpectedOmegaLinear(t)
		} else {
			omega += m.ExpectedOmega(t)
		}
	}
	return omega
}

// finishQuality turns the point sums of one tick into the quality vector
// (Eq. 12, 16, 17 and the accuracy combination).
func finishQuality(omega, covered, up, size float64) QualityEstimate {
	q := QualityEstimate{ExpectedOmega: omega, ExpectedSize: size, ExpectedUp: up, ExpectedCovered: covered}
	if omega > 0 {
		q.Coverage = clamp01(covered / omega)
		q.GlobalFreshness = clamp01(up / omega)
	}
	if size > 0 {
		q.LocalFreshness = clamp01(up / size)
	}
	q.Accuracy = metrics.AccuracyFromComponents(q.Coverage, q.LocalFreshness, q.GlobalFreshness)
	return q
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
