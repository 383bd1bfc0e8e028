package selection

import (
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"freshsource/internal/obs"
)

// TestSweepFanOutFloor pins the adaptive fan-out floor: a sweep with
// fewer than minMovesPerWorker moves per worker never engages the pool —
// no selection.sweep.parallel_batches increment, no helper goroutines —
// and still evaluates every move, so results are identical to the wide
// path by construction.
func TestSweepFanOutFloor(t *testing.T) {
	obs.Enable()
	batches := obs.Counter("selection.sweep.parallel_batches")

	ev := newEvaluator([]Option{Parallel(8)})
	defer ev.close()

	before := batches.Value()
	got := make([]int, 4)
	ev.sweep(4, func(i int) { got[i] = i + 1 })
	if delta := batches.Value() - before; delta != 0 {
		t.Errorf("4-move sweep at Parallel(8) recorded %d parallel batches, want 0 (inline below the floor)", delta)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("inline sweep outputs %v, want %v", got, want)
	}

	// A sweep at the floor fans out (and the pool, once started, is what
	// the parallel_batches counter observes).
	wide := make([]int, 8*minMovesPerWorker)
	before = batches.Value()
	ev.sweep(len(wide), func(i int) { wide[i] = 1 })
	if delta := batches.Value() - before; delta != 1 {
		t.Errorf("%d-move sweep at Parallel(8) recorded %d parallel batches, want 1", len(wide), delta)
	}
	for i, v := range wide {
		if v != 1 {
			t.Fatalf("pooled sweep skipped index %d", i)
		}
	}

	// And the algorithm-level contract: a 4-candidate instance at
	// Parallel(8) stays inline end to end and selects identically.
	o := randomWC(4, 3)
	seq := Greedy(o, 4)
	before = batches.Value()
	par := Greedy(o, 4, Parallel(8))
	if delta := batches.Value() - before; delta != 0 {
		t.Errorf("4-candidate Greedy at Parallel(8) recorded %d parallel batches, want 0", delta)
	}
	requireSameRun(t, "greedy under the fan-out floor", seq, par)
}

// TestSweepPoolPersists pins that one parallel run reuses a single set of
// pool helpers across all its sweeps (no per-round goroutine spawn) and
// shuts them down when the run finishes: after the run returns, the
// goroutine count settles back to the baseline.
func TestSweepPoolPersists(t *testing.T) {
	base := runtime.NumGoroutine()
	o := &incrWC{wcOracle: *randomWC(256, 11)}
	r := Greedy(o, 256, Parallel(4))
	if len(r.Set) == 0 {
		t.Fatal("greedy selected nothing")
	}
	// The deferred close fires before Greedy returns; helpers exit
	// asynchronously after quit closes, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("goroutines after run: %d, baseline %d — pool helpers leaked", got, base)
	}
}

// TestSweepPoolCloseIdempotent pins close semantics on every pool state.
func TestSweepPoolCloseIdempotent(t *testing.T) {
	var nilPool *sweepPool
	nilPool.close() // no-op on sequential runs

	p := newSweepPool(4)
	p.close() // never started

	p = newSweepPool(4)
	var n atomic.Int64 // the helpers evaluate concurrently
	p.run(200, nil, func(i int) { n.Add(1) })
	if got := n.Load(); got != 200 {
		t.Fatalf("pool evaluated %d of 200 moves", got)
	}
	p.close()
	p.close() // idempotent
}

// TestShardHeapPopOrder pins the merge invariant the sharded CELF heap
// relies on: because celfBefore is a strict total order, draining the
// shard heap yields exactly the same sequence regardless of the shard
// count — byte-identical to a single global heap.
func TestShardHeapPopOrder(t *testing.T) {
	const n = 257
	vals := make([]float64, n)
	for x := 0; x < n; x++ {
		// A few deliberate gain ties (x%7) to exercise the idx tiebreak.
		vals[x] = float64(x % 7)
	}
	value := func(x int) (float64, bool) { return vals[x], x%13 != 0 }

	var want []celfEntry
	for _, workers := range []int{1, 2, 4, 8} {
		ev := newEvaluator([]Option{Parallel(workers)})
		sh := buildShardHeap(ev, n, 0, value)
		var got []celfEntry
		for sh.len() > 0 {
			s, _ := sh.top()
			got = append(got, sh.pop(s))
		}
		ev.close()
		if !sort.SliceIsSorted(got, func(i, j int) bool { return celfBefore(got[i], got[j]) }) {
			t.Fatalf("workers=%d: drain sequence not in celfBefore order", workers)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: drain sequence diverges from the single-shard heap", workers)
		}
	}

	// Reinsertion (the speculative path's pop→recompute→push round-trip)
	// preserves the order property: push updated entries back into
	// arbitrary shards and verify the next top is the global best.
	ev := newEvaluator([]Option{Parallel(4)})
	defer ev.close()
	sh := buildShardHeap(ev, n, 0, value)
	s1, _ := sh.top()
	e1 := sh.pop(s1)
	s2, _ := sh.top()
	e2 := sh.pop(s2)
	e1.gain, e1.round = -1, 1 // now worse than everything
	e2.gain, e2.round = 99, 1 // now better than everything
	sh.push(s1, e1)
	sh.push(s2, e2)
	if _, top := sh.top(); top.idx != e2.idx || top.gain != 99 {
		t.Errorf("top after reinsertion = idx %d gain %v, want idx %d gain 99", top.idx, top.gain, e2.idx)
	}
}
