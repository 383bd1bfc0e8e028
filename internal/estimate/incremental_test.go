package estimate

import (
	"math/rand"
	"sync"
	"testing"

	"freshsource/internal/timeline"
)

// TestQualityMultiAddBitIdentical: the incremental add path must reproduce
// the from-scratch estimate bit for bit (==, no tolerance) — the selection
// algorithms rely on this to make the incremental sweeps return the exact
// sequential result.
func TestQualityMultiAddBitIdentical(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ticks := []timeline.Tick{310, 350, 400, 440}
	r := rand.New(rand.NewSource(7))

	n := e.NumCandidates()
	for trial := 0; trial < 60; trial++ {
		// A random base set (possibly empty) and a random x outside it.
		var set []int
		member := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				set = append(set, i)
				member[i] = true
			}
		}
		if len(set) == n {
			set, member[set[len(set)-1]] = set[:len(set)-1], false
		}
		x := r.Intn(n)
		for member[x] {
			x = r.Intn(n)
		}

		st := e.NewSetState(set)
		inc := e.QualityMultiAddInto(st, x, ticks, nil)
		ref := e.QualityMulti(append(append([]int(nil), set...), x), ticks)
		for k := range ticks {
			if inc[k] != ref[k] {
				t.Fatalf("trial %d set=%v x=%d tick %d:\nincremental %+v\nfrom-scratch %+v",
					trial, set, x, ticks[k], inc[k], ref[k])
			}
		}
	}
}

// TestQualityMultiAddEmptyBase: adding to the empty state must equal the
// singleton estimate.
func TestQualityMultiAddEmptyBase(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ticks := []timeline.Tick{320, 420}
	st := e.NewSetState(nil)
	for x := 0; x < e.NumCandidates(); x++ {
		inc := e.QualityMultiAddInto(st, x, ticks, nil)
		ref := e.QualityMulti([]int{x}, ticks)
		for k := range ticks {
			if inc[k] != ref[k] {
				t.Fatalf("x=%d tick %d: incremental %+v != singleton %+v", x, ticks[k], inc[k], ref[k])
			}
		}
	}
}

// TestSetStateConcurrentProbes: one shared state probed from many
// goroutines (the parallel-sweep access pattern) must stay correct; run
// under -race this doubles as the estimator's concurrency test.
func TestSetStateConcurrentProbes(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ticks := []timeline.Tick{330, 380, 430}
	st := e.NewSetState([]int{0})

	want := make([][]QualityEstimate, e.NumCandidates())
	for x := 1; x < e.NumCandidates(); x++ {
		want[x] = e.QualityMulti([]int{0, x}, ticks)
	}

	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for x := 1; x < e.NumCandidates(); x++ {
			wg.Add(1)
			go func(x int) {
				defer wg.Done()
				got := e.QualityMultiAddInto(st, x, ticks, nil)
				for k := range ticks {
					if got[k] != want[x][k] {
						t.Errorf("concurrent probe x=%d tick %d mismatch", x, ticks[k])
						return
					}
				}
			}(x)
		}
	}
	wg.Wait()
}

// TestQualityMultiAddIntoReuse: a probe into a caller's buffer must be
// bit-identical to an allocating probe (nil out), reuse the buffer when
// capacity suffices, and — once the state's per-tick caches are warm —
// allocate nothing. This
// is the steady-state probe the selection sweeps issue, so zero here is
// what keeps the whole CELF solve allocation-flat per round.
func TestQualityMultiAddIntoReuse(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ticks := []timeline.Tick{310, 350, 400}
	st := e.NewSetState([]int{0, 2})

	buf := make([]QualityEstimate, 0, len(ticks))
	got := e.QualityMultiAddInto(st, 1, ticks, buf)
	ref := e.QualityMultiAddInto(st, 1, ticks, nil)
	for k := range ticks {
		if got[k] != ref[k] {
			t.Fatalf("tick %d: Into %+v != Add %+v", ticks[k], got[k], ref[k])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Error("Into did not reuse the caller's buffer")
	}

	// Warm state + adequate buffer: the probe allocates nothing. The race
	// runtime allocates for its own bookkeeping, so the pin is unracable.
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(100, func() {
		got = e.QualityMultiAddInto(st, 1, ticks, got[:0])
	}); avg != 0 {
		t.Errorf("warm QualityMultiAddInto allocates %v per run, want 0", avg)
	}
}

// TestQualityMultiStateBitIdentical: the warm-state evaluation path (cached
// t0 counts + per-tick miss products) must reproduce the from-scratch
// QualityMulti bit for bit, including on the empty set, and stay identical
// when the same state is re-queried (the serving registry's warm path).
func TestQualityMultiStateBitIdentical(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	ticks := []timeline.Tick{310, 350, 400, 440}
	r := rand.New(rand.NewSource(11))

	n := e.NumCandidates()
	sets := [][]int{nil, {0}}
	for trial := 0; trial < 20; trial++ {
		var set []int
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				set = append(set, i)
			}
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		st := e.NewSetState(set)
		ref := e.QualityMulti(set, ticks)
		for rep := 0; rep < 2; rep++ { // second pass hits the warm miss cache
			got := e.QualityMultiState(st, ticks)
			for k := range ticks {
				if got[k] != ref[k] {
					t.Fatalf("set=%v rep=%d tick %d:\nstate %+v\nfrom-scratch %+v",
						set, rep, ticks[k], got[k], ref[k])
				}
			}
		}
		// Overlapping tick vectors reuse the cached products per tick.
		sub := e.QualityMultiState(st, ticks[1:3])
		if sub[0] != ref[1] || sub[1] != ref[2] {
			t.Fatalf("set=%v: overlapping Tf mismatch", set)
		}
	}
}

// TestSetStateCachesMatchFromScratch: the state's cached t0 counts equal a
// from-scratch QualityMulti evaluation at t0 boundary behavior — i.e. the
// state-built covering lists drive identical estimates.
func TestSetStateReusableAcrossTicks(t *testing.T) {
	w := testWorld(t)
	e := buildEstimator(t, w)
	st := e.NewSetState([]int{1, 2})
	// The same state serves probes at different tick vectors.
	a := e.QualityMultiAddInto(st, 0, []timeline.Tick{310}, nil)
	b := e.QualityMultiAddInto(st, 0, []timeline.Tick{310, 440}, nil)
	if a[0] != b[0] {
		t.Errorf("same tick through different vectors: %+v != %+v", a[0], b[0])
	}
}
