package selection

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"freshsource/internal/obs"
)

// CachedOracle memoizes Value evaluations keyed by the canonical
// (order-insensitive) set, so the local-search algorithms — which revisit
// the same candidate sets across rounds (delete sweeps after a failed add,
// GRASP restarts converging to the same basin) — pay for each distinct set
// once. It is safe for concurrent use, so parallel sweeps share one cache.
//
// Keying: a set is identified by the XOR of a splitmix64 hash of each
// member — order-insensitive by commutativity and extendable to set ∪ {x}
// with one extra hash, so the incremental probe path derives its key in
// O(1) without materializing the candidate set. Collisions are resolved by
// an exact sorted-membership comparison per bucket entry (for probes, a
// merge-walk of base ∪ {x} against the stored set with nothing allocated).
// The old canonical-key-string scheme allocated a fresh key per lookup; the
// hash path makes a probe hit allocation-free, which
// BenchmarkCachedOracleValueAdd pins.
//
// Layering: algorithms wrap their oracle as Count(Cached(f)), which this
// package does automatically when the cache is handed in; the counter sits
// above the cache, so Result.OracleCalls still reports the algorithm's
// probe count and stays identical with and without caching. Cache
// effectiveness is visible separately via Hits/Misses and the
// selection.cache.{hits,misses} obs counters.
type CachedOracle struct {
	inner Oracle

	mu   sync.Mutex
	vals map[uint64][]cacheEntry
	size int

	hits, misses       atomic.Int64
	obsHits, obsMisses *obs.CounterVar

	// sortBuf pools the Value path's sort scratch (as slice pointers, so
	// Get/Put don't box a header).
	sortBuf sync.Pool
}

// cacheEntry is one memoized set in a hash bucket: the sorted membership
// (the collision tiebreaker) and the value.
type cacheEntry struct {
	set []int32
	val float64
}

// Cached wraps f in a CachedOracle. Wrapping a CachedOracle returns it
// unchanged so layers stay idempotent.
func Cached(f Oracle) *CachedOracle {
	if c, ok := f.(*CachedOracle); ok {
		return c
	}
	return &CachedOracle{
		inner:     f,
		vals:      make(map[uint64][]cacheEntry),
		obsHits:   obs.Counter("selection.cache.hits"),
		obsMisses: obs.Counter("selection.cache.misses"),
	}
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit hash
// whose per-element values XOR into an order-insensitive set hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// setHash returns the order-insensitive membership hash of a set.
func setHash(set []int) uint64 {
	var h uint64
	for _, x := range set {
		h ^= splitmix64(uint64(x))
	}
	return h
}

// eqSorted reports whether two sorted membership slices are identical.
func eqSorted(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// eqSortedPlus reports whether entry equals base ∪ {x} (both sorted, x not
// in base) by merge-walking — no merged slice is built.
func eqSortedPlus(entry, base []int32, x int32) bool {
	if len(entry) != len(base)+1 {
		return false
	}
	i := 0
	xUsed := false
	for _, v := range entry {
		if !xUsed && (i >= len(base) || x <= base[i]) {
			if v != x {
				return false
			}
			xUsed = true
			continue
		}
		if v != base[i] {
			return false
		}
		i++
	}
	return xUsed && i == len(base)
}

// Value implements Oracle, memoizing by canonical set.
func (c *CachedOracle) Value(set []int) float64 {
	bp, _ := c.sortBuf.Get().(*[]int32)
	if bp == nil {
		bp = new([]int32)
	}
	s := (*bp)[:0]
	for _, x := range set {
		s = append(s, int32(x))
	}
	slices.Sort(s)
	h := setHash(set)

	c.mu.Lock()
	for _, e := range c.vals[h] {
		if eqSorted(e.set, s) {
			v := e.val
			c.mu.Unlock()
			c.hits.Add(1)
			c.obsHits.Add(1)
			*bp = s
			c.sortBuf.Put(bp)
			return v
		}
	}
	c.mu.Unlock()

	// Miss: evaluate outside the lock so parallel sweeps overlap distinct
	// evaluations; concurrent misses of the same set both evaluate
	// (identical results — the oracle is deterministic) and the first store
	// wins.
	c.misses.Add(1)
	c.obsMisses.Add(1)
	v := c.inner.Value(set)
	c.mu.Lock()
	if !c.bucketHas(h, func(e []int32) bool { return eqSorted(e, s) }) {
		c.vals[h] = append(c.vals[h], cacheEntry{set: append([]int32(nil), s...), val: v})
		c.size++
	}
	c.mu.Unlock()
	*bp = s
	c.sortBuf.Put(bp)
	return v
}

// bucketHas reports whether bucket h already holds a set matching eq.
// Caller holds c.mu.
func (c *CachedOracle) bucketHas(h uint64, eq func([]int32) bool) bool {
	for _, e := range c.vals[h] {
		if eq(e.set) {
			return true
		}
	}
	return false
}

// Feasible implements Oracle. Feasibility is not memoized: budget checks
// are cheap relative to quality evaluation and keeping them live avoids a
// second map on the hot path.
func (c *CachedOracle) Feasible(set []int) bool { return c.inner.Feasible(set) }

// cachedAddState carries the base set (original order for the inner
// fallback), its sorted membership and hash for O(1) probe keys, plus the
// inner oracle's incremental state (nil when the inner oracle declined or
// is not incremental — misses then fall back to a full Value evaluation).
type cachedAddState struct {
	set    []int
	sorted []int32
	hash   uint64
	inner  any
}

// BeginAdd implements IncrementalOracle. It always accepts: even without
// an incremental inner oracle the memoized add-probe path pays off, since
// repeated sweeps probe the same supersets.
func (c *CachedOracle) BeginAdd(set []int) any {
	return c.BeginAddWorkers(context.Background(), set, 1)
}

// BeginAddWorkers implements WorkersBeginner, passing the context and
// worker count to the inner oracle's state, whose caches only a memo miss
// then fills.
func (c *CachedOracle) BeginAddWorkers(ctx context.Context, set []int, workers int) any {
	st := &cachedAddState{set: append([]int(nil), set...), hash: setHash(set)}
	st.sorted = make([]int32, len(set))
	for i, x := range set {
		st.sorted[i] = int32(x)
	}
	slices.Sort(st.sorted)
	if io, ok := c.inner.(IncrementalOracle); ok {
		st.inner = beginAddOn(ctx, io, set, workers)
	}
	return st
}

// ValueAdd implements IncrementalOracle: the memoized value of
// set ∪ {x}, computed on a miss through the inner incremental state when
// available. A hit derives the key incrementally and compares membership
// by merge-walk — no allocation at all.
func (c *CachedOracle) ValueAdd(state any, x int) float64 {
	st := state.(*cachedAddState)
	h := st.hash ^ splitmix64(uint64(x))
	x32 := int32(x)

	c.mu.Lock()
	for _, e := range c.vals[h] {
		if eqSortedPlus(e.set, st.sorted, x32) {
			v := e.val
			c.mu.Unlock()
			c.hits.Add(1)
			c.obsHits.Add(1)
			return v
		}
	}
	c.mu.Unlock()

	c.misses.Add(1)
	c.obsMisses.Add(1)
	var v float64
	if st.inner != nil {
		v = c.inner.(IncrementalOracle).ValueAdd(st.inner, x)
	} else {
		v = c.inner.Value(with(st.set, x))
	}
	c.mu.Lock()
	if !c.bucketHas(h, func(e []int32) bool { return eqSortedPlus(e, st.sorted, x32) }) {
		merged := make([]int32, 0, len(st.sorted)+1)
		i := 0
		for ; i < len(st.sorted) && st.sorted[i] < x32; i++ {
			merged = append(merged, st.sorted[i])
		}
		merged = append(merged, x32)
		merged = append(merged, st.sorted[i:]...)
		c.vals[h] = append(c.vals[h], cacheEntry{set: merged, val: v})
		c.size++
	}
	c.mu.Unlock()
	return v
}

// Hits returns the number of memoized evaluations served so far.
func (c *CachedOracle) Hits() int { return int(c.hits.Load()) }

// Misses returns the number of evaluations that went to the inner oracle.
func (c *CachedOracle) Misses() int { return int(c.misses.Load()) }

// Len returns the number of distinct sets memoized.
func (c *CachedOracle) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Unwrap returns the wrapped oracle.
func (c *CachedOracle) Unwrap() Oracle { return c.inner }
