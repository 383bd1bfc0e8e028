package estimate

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"freshsource/internal/dataset"
	"freshsource/internal/obs"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
)

// blFixture is freshd's default served world (BL, scale 0.5, seed 1: 43
// sources, 1,224 domain points, ticks up to 390 past t0) and its base fit,
// built once per test binary. Tests that mutate an estimator take a fresh
// copy through FromFitted, which re-derives every table in milliseconds.
var blFixture struct {
	once sync.Once
	d    *dataset.Dataset
	f    *Fitted
	err  error
}

func blWorld(tb testing.TB) (*dataset.Dataset, *Fitted) {
	tb.Helper()
	blFixture.once.Do(func() {
		cfg := dataset.DefaultBLConfig()
		cfg.Scale = 0.5
		cfg.Seed = 1
		d, err := dataset.GenerateBL(cfg)
		if err != nil {
			blFixture.err = err
			return
		}
		e, err := New(d.World, d.Sources, d.T0, d.Horizon()-1, nil)
		if err != nil {
			blFixture.err = err
			return
		}
		blFixture.d = d
		blFixture.f, blFixture.err = e.Export()
	})
	if blFixture.err != nil {
		tb.Fatal(blFixture.err)
	}
	return blFixture.d, blFixture.f
}

// blEstimator returns a fresh, caller-owned estimator over the BL world.
func blEstimator(tb testing.TB) (*dataset.Dataset, *Estimator) {
	tb.Helper()
	d, f := blWorld(tb)
	e, err := FromFitted(d.World, f)
	if err != nil {
		tb.Fatal(err)
	}
	return d, e
}

// addUncoveredSignatureCandidate appends a synthetic candidate that shares
// candidate base's signatures and tables but covers only every other point
// base covers: at the dropped points its signatures still meet the masks,
// so its touch list holds points where it adds t0 content and folds no
// effectiveness terms. It returns the new index and how many such points
// the list holds.
func addUncoveredSignatureCandidate(e *Estimator, base int) (int, int) {
	b := e.cands[base]
	c := &Candidate{
		Profile:     b.Profile,
		SourceIndex: e.maxSourceIndex() + 1,
		covers:      make([]bool, len(e.points)),
		gi:          b.gi,
		gd:          b.gd,
		gu:          b.gu,
	}
	for j := range c.covers {
		c.covers[j] = b.covers[j] && j%2 == 0
	}
	c.touch = e.touchOf(c)
	uncovered := 0
	for _, j := range c.touch {
		if !c.covers[j] {
			uncovered++
		}
	}
	e.cands = append(e.cands, c)
	return len(e.cands) - 1, uncovered
}

// addLaggingCandidate appends a copy of candidate base whose acquisition
// schedule is re-anchored at lastUpdate with the given interval, so its
// alignment TS(t) lags t: its effectiveness terms reach fewer occurrence
// indices than the tick has (none once TS(t) ≤ T0). It returns the new
// index.
func addLaggingCandidate(e *Estimator, base int, lastUpdate timeline.Tick, interval float64) int {
	b := e.cands[base]
	p := *b.Profile
	p.LastUpdate, p.UpdateInterval = lastUpdate, interval
	e.cands = append(e.cands, &Candidate{
		Profile:     &p,
		SourceIndex: e.maxSourceIndex() + 1,
		covers:      b.covers,
		touch:       b.touch,
		gi:          b.gi,
		gd:          b.gd,
		gu:          b.gu,
	})
	return len(e.cands) - 1
}

// TestSparseProbeBitIdenticalBL: on the served BL world, the point-sparse
// probe and the cached-state evaluation reproduce the from-scratch
// QualityMulti bit for bit — for every candidate (base, frequency variant,
// cold start, one whose signatures reach points it does not cover, one
// whose alignment lags the tick and one whose terms reach no occurrence),
// on the empty set and non-empty sets, at T0+1, a middle tick and MaxT,
// under the default, Literal, NoAlignment and linear-Ω modes.
func TestSparseProbeBitIdenticalBL(t *testing.T) {
	d, e := blEstimator(t)
	if _, err := e.AddFrequencyVariants([]int{2}); err != nil {
		t.Fatal(err)
	}
	cold, err := e.AddColdStartCandidate(d.World, d.Sources[5], 4)
	if err != nil {
		t.Fatal(err)
	}
	synth, uncovered := addUncoveredSignatureCandidate(e, 0)
	if uncovered == 0 {
		t.Fatal("synthetic candidate touches no uncovered point; the case is vacuous")
	}
	ticks := []timeline.Tick{e.T0 + 1, e.T0 + (e.MaxT-e.T0)/2, e.MaxT}
	lag := addLaggingCandidate(e, 2, e.T0, 50)
	dead := addLaggingCandidate(e, 9, e.T0-5, 1e6)
	for _, tk := range ticks[1:] {
		if ts := e.cands[lag].Profile.TS(tk); ts <= e.T0 || ts >= tk {
			t.Fatalf("lagging candidate aligns tick %d to %d; want a lag inside (T0, t)", tk, ts)
		}
	}
	if ts := e.cands[dead].Profile.TS(e.MaxT); ts > e.T0 {
		t.Fatalf("dead candidate aligns MaxT to %d, past T0", ts)
	}
	always := map[int]bool{cold: true, synth: true, lag: true, dead: true}
	n := e.NumCandidates()

	r := rand.New(rand.NewSource(5))
	sets := [][]int{nil, {cold}, {3, 17, 40, synth}}
	var random []int
	for len(random) < 8 {
		if x := r.Intn(n); !always[x] {
			random = append(random, x)
		}
	}
	sets = append(sets, random)

	modes := []struct {
		name string
		set  func(on bool)
	}{
		{"default", func(bool) {}},
		{"literal", func(on bool) { e.Literal = on }},
		{"no-alignment", func(on bool) { e.NoAlignment = on }},
		{"linear-omega", e.SetLinearOmega},
	}
	for mi, mode := range modes {
		mode.set(true)
		for si, set := range sets {
			// Each reference QualityMulti costs ~20 ms here, so every
			// candidate is probed in the default mode against the empty
			// set and one non-empty set, and a stride of them (plus the
			// cold-start, synthetic and lagging ones) elsewhere;
			// race-instrumented runs, ~10× slower, keep a wider stride.
			stride := 7
			if mi == 0 && (si == 0 || si == 2) {
				stride = 1
			}
			if raceEnabled {
				stride = 29
			}
			st := e.NewSetState(set)
			if got, want := e.QualityMultiState(st, ticks), e.QualityMulti(set, ticks); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s set=%v: QualityMultiState\n%+v\nQualityMulti\n%+v", mode.name, set, got, want)
			}
			member := make(map[int]bool, len(set))
			for _, i := range set {
				member[i] = true
			}
			for x := 0; x < n; x++ {
				if member[x] || (x%stride != 0 && !always[x]) {
					continue
				}
				got := e.QualityMultiAddInto(st, x, ticks, nil)
				want := e.QualityMulti(append(append([]int(nil), set...), x), ticks)
				for k := range ticks {
					if got[k] != want[k] {
						t.Fatalf("%s set=%v x=%d tick %d:\nprobe        %+v\nfrom-scratch %+v",
							mode.name, set, x, ticks[k], got[k], want[k])
					}
				}
			}
		}
		mode.set(false)
	}
}

// TestTouchListsSparseBL pins what makes the probe cheap on the served
// world: the masks span a few words each, and the touch lists hold the
// covered points plus the points a signature reaches — a fraction of the
// domain, ascending.
func TestTouchListsSparseBL(t *testing.T) {
	_, e := blEstimator(t)
	words := 0
	for j, w := range e.maskWin {
		if w.lo > w.hi || !e.masks[j].Any() {
			t.Fatalf("point %d: window [%d, %d) over an empty mask", j, w.lo, w.hi)
		}
		words += w.hi - w.lo
	}
	if avg := float64(words) / float64(len(e.points)); avg > 4 {
		t.Errorf("masks span %.1f words on average, want a few", avg)
	}
	touched := 0
	for i, c := range e.cands {
		for k, j := range c.touch {
			if k > 0 && j <= c.touch[k-1] {
				t.Fatalf("candidate %d: touch list not ascending at %d", i, k)
			}
		}
		for j, cv := range c.covers {
			if cv && !slices.Contains(c.touch, int32(j)) {
				t.Fatalf("candidate %d covers point %d but does not touch it", i, j)
			}
		}
		touched += len(c.touch)
	}
	if share := float64(touched) / float64(len(e.cands)*len(e.points)); share > 0.5 {
		t.Errorf("candidates touch %.0f%% of the points on average, want a fraction", 100*share)
	}
}

// assertSameDerivation checks that two estimators over one world carry
// equal mask windows and touch lists.
func assertSameDerivation(t *testing.T, what string, a, b *Estimator) {
	t.Helper()
	if !reflect.DeepEqual(a.maskWin, b.maskWin) {
		t.Errorf("%s: mask windows differ", what)
	}
	if len(a.cands) != len(b.cands) {
		t.Fatalf("%s: %d vs %d candidates", what, len(a.cands), len(b.cands))
	}
	for i := range a.cands {
		if !reflect.DeepEqual(a.cands[i].touch, b.cands[i].touch) {
			t.Errorf("%s: candidate %d touch lists differ: %d vs %d points", what, i, len(a.cands[i].touch), len(b.cands[i].touch))
		}
	}
}

// TestTouchListsSurviveRoundTripAndRefit: the windows and touch lists are
// derived, not persisted, so a model-cache load (Export → FromFitted) and
// an Accumulator refit must derive them exactly as a cold fit does —
// including after streamed observations put signature bits on points a
// source does not cover.
func TestTouchListsSurviveRoundTripAndRefit(t *testing.T) {
	d, f := blWorld(t)
	fresh, err := New(d.World, d.Sources, d.T0, d.Horizon()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := FromFitted(d.World, f)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDerivation(t, "FromFitted", fresh, loaded)

	// Variants alias their base's list.
	if _, err := loaded.AddFrequencyVariants([]int{2}); err != nil {
		t.Fatal(err)
	}
	nBase := len(d.Sources)
	for i := nBase; i < loaded.NumCandidates(); i++ {
		v := loaded.cands[i]
		if b := loaded.cands[v.SourceIndex]; &v.touch[0] != &b.touch[0] {
			t.Errorf("variant %d does not alias its base's touch list", i)
		}
	}

	ctx := context.Background()
	const step = 6
	acc, err := NewAccumulator(ctx, d.World, d.Sources, d.T0, d.Horizon()-1, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	streamed := make([][]timeline.Event, len(d.Sources))
	newCut := d.T0 + step
	for i := range d.Sources {
		streamed[i] = synthDelta(rng, d.World, d.T0, newCut)
	}
	if err := acc.Advance(ctx, newCut, streamed); err != nil {
		t.Fatal(err)
	}
	refit, err := acc.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coldSrcs := make([]*source.Source, len(d.Sources))
	for i, s := range d.Sources {
		evs := append(append([]timeline.Event(nil), s.Log().Events()...), streamed[i]...)
		if coldSrcs[i], err = source.FromLog(s.ID(), s.Spec(), s.Horizon(), evs); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := New(d.World, coldSrcs, newCut, d.Horizon()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDerivation(t, "Accumulator refit", cold, refit)
}

// TestSparseProbeRaceFreshState: parallel sweeps probe one fresh SetState,
// so every tick's cache is first built under contention and published by
// compare-and-swap; every probe must still match the sequential answer.
// Under -race this is the tick cache's concurrency test on the served
// world's shape.
func TestSparseProbeRaceFreshState(t *testing.T) {
	_, e := blEstimator(t)
	ticks := []timeline.Tick{e.T0 + 1, e.T0 + 97, e.MaxT}
	set := []int{4, 11}
	want := make([][]QualityEstimate, e.NumCandidates())
	ref := e.NewSetState(set)
	for x := range want {
		if x != 4 && x != 11 {
			want[x] = e.QualityMultiAddInto(ref, x, ticks, nil)
		}
	}

	st := e.NewSetState(set)
	const sweeps = 4
	var wg sync.WaitGroup
	for w := 0; w < sweeps; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]QualityEstimate, 0, len(ticks))
			for k := range want {
				x := (k + w*11) % len(want) // each sweep starts elsewhere
				if want[x] == nil {
					continue
				}
				buf = e.QualityMultiAddInto(st, x, ticks, buf[:0])
				if !reflect.DeepEqual(buf, want[x]) {
					t.Errorf("sweep %d x=%d: concurrent probe differs", w, x)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuildTicksSplitMatchesSequential: BuildTicks splits each tick's point
// loop across workers; every tick it builds must equal a sequential
// from-scratch fold of each point (QualityMulti's loop) bit for bit, the
// work it counts (tick builds, recurrence steps, candidate terms) must match
// that fold's, and ticks already built — or listed twice — are not built
// again.
func TestBuildTicksSplitMatchesSequential(t *testing.T) {
	_, e := blEstimator(t)
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	names := []string{"estimate.setstate.tick_builds", "estimate.recurrence.steps", "estimate.recurrence.cand_terms"}
	counts := func() []int64 {
		out := make([]int64, len(names))
		for i, n := range names {
			out[i] = obs.Counter(n).Value()
		}
		return out
	}
	set := []int{0, 7, 21, 30}
	distinct := []timeline.Tick{e.T0 + 1, e.T0 + 97, e.MaxT}
	ticks := append(distinct, e.T0+97)

	// The reference: each point folded on its own, in covering order.
	ref := e.NewSetState(set)
	want := make([]int64, len(names))
	type point struct {
		ins, del, upd []float64
		cov, up, size float64
	}
	refTicks := make([][]point, len(distinct))
	for k, tk := range distinct {
		dt0 := int(tk - e.T0)
		want[0]++
		want[1] += int64(dt0 * len(e.points))
		for j := range e.points {
			p := point{ins: make([]float64, dt0), del: make([]float64, dt0), upd: make([]float64, dt0)}
			for i := 0; i < dt0; i++ {
				p.ins[i], p.del[i], p.upd[i] = 1, 1, 1
			}
			for _, c := range ref.covering[j] {
				want[2] += e.candidateMiss(c, tk, dt0, p.ins, p.del, p.upd)
			}
			p.cov, p.up, p.size = e.pointAt(j, dt0, ref.covT0[j], ref.upT0[j], ref.sizeT0[j], p.ins, p.del, p.upd, nil)
			refTicks[k] = append(refTicks[k], p)
		}
	}

	for _, workers := range []int{1, 2, 3, 16} {
		st := e.NewSetState(set)
		c0 := counts()
		if !st.BuildTicks(context.Background(), ticks, workers) {
			t.Fatalf("workers=%d: build reports not done", workers)
		}
		got := counts()
		for i := range got {
			got[i] -= c0[i]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: counted %v, sequential fold %v (%v)", workers, got, want, names)
		}
		for k, tk := range distinct {
			m := st.ticks[int(tk-e.T0)].Load()
			for j, p := range refTicks[k] {
				if !reflect.DeepEqual(p, point{m.ins[j], m.del[j], m.upd[j], m.cov[j], m.up[j], m.size[j]}) {
					t.Fatalf("workers=%d tick %d point %d: split build differs from the sequential fold", workers, tk, j)
				}
			}
		}
		c0 = counts()
		st.BuildTicks(context.Background(), ticks, workers)
		if n := obs.Counter(names[0]).Value() - c0[0]; n != 0 {
			t.Errorf("workers=%d: rebuilt %d ticks already built", workers, n)
		}
	}
}
