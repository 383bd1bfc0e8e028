package selection

import (
	"context"
	"runtime"
	"sort"

	"freshsource/internal/obs"
	"freshsource/internal/stats"
)

// Options tunes how an algorithm runs; the zero value reproduces the
// historical sequential behavior exactly.
type Options struct {
	// Workers is the number of goroutines each candidate sweep fans move
	// evaluations across; 0 or 1 evaluates sequentially.
	Workers int
	// Ctx, when non-nil, lets a run be canceled between (and inside)
	// candidate sweeps; see Context.
	Ctx context.Context
	// Sample, when positive, caps the number of moves the wide local-search
	// neighborhoods (MaxSub's add sweep, the matroid search's exchange
	// sweep) examine per round at a uniform random subset of that size; see
	// Sampled. 0 keeps the exhaustive neighborhoods.
	Sample int
	// SampleSeed seeds the neighborhood sampler; runs with equal seeds draw
	// identical neighborhoods.
	SampleSeed int64
	// SpecStride tunes LazyGreedy's speculative batched re-evaluation: when
	// the CELF heap top is stale, up to Workers×SpecStride stale entries are
	// recomputed concurrently before the sequential adoption step. 0 applies
	// the default stride (speculation then engages only with Workers > 1);
	// negative disables speculation; see Speculative.
	SpecStride int
}

// Option mutates Options.
type Option func(*Options)

// Parallel fans each round's candidate-move evaluations (adds, deletes,
// swaps) across the given number of workers; workers <= 0 sizes the
// fan-out to the smaller of GOMAXPROCS and the machine's CPU count. The
// sweeps are pure CPU work, so a GOMAXPROCS set above the cores that
// actually exist (common on capped containers) buys no overlap — only
// preemption churn between runnable workers fighting for the same core;
// on a single-core host the default therefore degrades to the sequential
// path exactly, which makes the parallel-slower-than-sequential inversion
// structurally impossible there. An explicit positive count is honored
// verbatim. The result is deterministic and identical to the sequential
// path either way: every move's value lands at a fixed index and the
// argmax reduction runs sequentially in the original scan order, so ties
// always resolve to the lowest-index move and oracle-call counts are
// unchanged.
//
// Parallel sweeps require the oracle's Value/Feasible (and ValueAdd, when
// implemented) to be safe for concurrent calls; Profit and CountingOracle
// are.
func Parallel(workers int) Option {
	if workers <= 0 {
		workers = Cores()
	}
	return func(o *Options) { o.Workers = workers }
}

// Cores is the default sweep fan-out: the smaller of GOMAXPROCS and the
// machine's CPU count (see Parallel).
func Cores() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// Context makes the run cancelable: when ctx is canceled the algorithm
// abandons the sweep in flight, discards that sweep's partial results, and
// returns a Result whose Err is ErrCanceled and whose Set/Value hold the
// last fully-completed state (never a partially-reduced argmax). Without
// this option runs are uninterruptible, as historically.
func Context(ctx context.Context) Option {
	return func(o *Options) { o.Ctx = ctx }
}

// Sampled makes the wide local-search neighborhoods stochastic: each
// improvement round of MaxSub's addition sweep and MatroidLocalSearch's
// exchange sweep examines a uniform random subset of at most size moves
// instead of all O(n), so a swap round costs O(size) oracle calls at
// paper-scale candidate counts. The narrow neighborhoods — singleton
// initialization and deletion sweeps over the current set — stay
// exhaustive, which preserves the never-worse-than-start guarantee: a
// sampled search still only ever takes strict improvements from its start
// point, it just may stop at a weaker local optimum than the exhaustive
// search.
//
// Sampling is deterministic for a fixed seed and independent of the
// Workers option: indices are drawn sequentially before the sweep fans
// out, and each sampled neighborhood is evaluated in ascending index order
// so ties keep resolving to the lowest-index move.
func Sampled(size int, seed int64) Option {
	return func(o *Options) { o.Sample, o.SampleSeed = size, seed }
}

// defaultSpecStride is the per-worker speculation depth LazyGreedy uses
// when the Speculative option is absent and the run has multiple workers.
// Deliberately deep: recomputing a large cluster of competitive stale
// entries in one batch tightens all their bounds against the same
// solution state, which pushes also-rans down the heap and saves their
// individual recomputes in later rounds — measured on the 15k corpus,
// total oracle calls FALL as the stride grows (net waste ~1% at 32× vs
// ~4% at 4×), while wider batches also give the pool more moves to deal.
const defaultSpecStride = 16

// Speculative sets LazyGreedy's speculative batch stride: when the CELF
// heap top is stale, the top Workers×stride stale entries are popped and
// recomputed concurrently, then reinserted and adopted sequentially in
// Greedy's exact argmax order. Set and Value stay byte-identical to
// sequential Greedy/LazyGreedy at any stride and worker count — only
// OracleCalls may grow, by the speculation margin (recomputes a purely
// lazy run would have skipped), reported via the
// selection.lazygreedy.speculative_{recomputes,wasted} counters.
//
// stride 0 restores the default (speculate with defaultSpecStride when
// Workers > 1, stay purely lazy otherwise); a negative stride disables
// speculation at any worker count; a positive stride forces it even on a
// single-worker run (useful for pinning determinism, pure overhead
// otherwise). Algorithms other than LazyGreedy ignore the option.
func Speculative(stride int) Option {
	return func(o *Options) { o.SpecStride = stride }
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// evaluator runs candidate sweeps for one algorithm run.
type evaluator struct {
	workers int
	ctx     context.Context
	sample  int
	// spec is LazyGreedy's resolved speculative batch size (stale entries
	// recomputed per batch); 0 disables speculation.
	spec int
	// rng drives neighborhood sampling; a pointer, because evaluators are
	// copied by value while the sampler's state must advance across rounds.
	rng *stats.RNG
	// pool holds the run's persistent sweep workers (nil on sequential
	// runs). Shared by every evaluator copy of the run; the owning
	// algorithm must call close on exit.
	pool *sweepPool
}

func newEvaluator(opts []Option) evaluator {
	o := buildOptions(opts)
	w := o.Workers
	if w < 1 {
		w = 1
	}
	ev := evaluator{workers: w, ctx: o.Ctx, sample: o.Sample}
	if o.Sample > 0 {
		ev.rng = stats.NewRNG(o.SampleSeed)
	}
	if w > 1 {
		ev.pool = newSweepPool(w)
	}
	switch {
	case o.SpecStride > 0:
		ev.spec = w * o.SpecStride
	case o.SpecStride == 0 && w > 1:
		ev.spec = w * defaultSpecStride
	}
	return ev
}

// close releases the run's sweep pool (a no-op on sequential runs). Every
// algorithm defers it on entry so the pool's helpers never outlive the
// run, finished or canceled.
func (e evaluator) close() { e.pool.close() }

// sampleIdx returns the move indices a sampled wide sweep should examine
// out of [0, m): all of them (nil, meaning the identity) when sampling is
// off or m already fits the cap, else a sorted uniform sample of size
// e.sample. The draw happens sequentially on the caller's goroutine and
// the result is sorted ascending, so sampled sweeps stay deterministic for
// a fixed seed at any worker count and keep lowest-index tie resolution.
func (e evaluator) sampleIdx(m int) []int {
	if e.sample <= 0 || m <= e.sample {
		return nil
	}
	idx := e.rng.SampleWithoutReplacement(m, e.sample)
	sort.Ints(idx)
	obs.Counter("selection.sweep.sampled_rounds").Inc()
	obs.Counter("selection.sweep.sampled_skipped").Add(int64(m - len(idx)))
	return idx
}

// canceled reports whether the run's context (if any) has been canceled.
// Algorithms call it right after each sweep: a true return means that
// sweep's outputs are partial and must be discarded.
func (e evaluator) canceled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// sweepOn is sweep restricted to the given move indices (idx nil — the
// sampleIdx identity — sweeps all of [0, m)).
func (e evaluator) sweepOn(m int, idx []int, eval func(i int)) {
	if idx == nil {
		e.sweep(m, eval)
		return
	}
	e.sweep(len(idx), func(k int) { eval(idx[k]) })
}

// cancelStride bounds how many sequential evaluations run between context
// checks; oracle evaluations dominate, so the check is amortized to noise.
const cancelStride = 32

// minMovesPerWorker is the adaptive fan-out floor: a sweep only engages
// the pool when it has at least this many moves per worker. Below the
// floor — short deletion sweeps, end-game rounds, tiny instances — the
// cross-goroutine handoff costs more than the moves themselves, which is
// exactly how the parallel path used to lose to sequential on small
// rounds; such sweeps run inline instead (and produce identical results,
// since the parallel path is deterministic anyway).
const minMovesPerWorker = 16

// sweep evaluates eval(i) for every i in [0, m), fanning across the
// evaluator's persistent pool when the sweep is wide enough to pay for
// the handoff (see minMovesPerWorker). eval must write its outcome to
// storage indexed by i (never shared across indices), which makes the
// sweep's result independent of evaluation order. Narrow sweeps and
// single-worker runs evaluate inline in index order. A canceled context
// stops the sweep early, leaving the remaining indices unevaluated —
// callers must check canceled() before reducing the outputs.
func (e evaluator) sweep(m int, eval func(i int)) {
	if e.pool == nil || m < e.workers*minMovesPerWorker {
		e.sweepInline(m, eval)
		return
	}
	e.sweepPooled(m, eval)
}

// sweepEager is sweep without the fan-out floor: any multi-move sweep on
// a parallel run goes through the pool. LazyGreedy's speculative batches
// use it — their moves are known-heavy oracle probes (that is why they
// were batched at all), so even a handful are worth the handoff.
func (e evaluator) sweepEager(m int, eval func(i int)) {
	if e.pool == nil || m < 2 {
		e.sweepInline(m, eval)
		return
	}
	e.sweepPooled(m, eval)
}

func (e evaluator) sweepInline(m int, eval func(i int)) {
	if e.ctx == nil {
		for i := 0; i < m; i++ {
			eval(i)
		}
		return
	}
	for i := 0; i < m; i++ {
		if i%cancelStride == 0 && e.ctx.Err() != nil {
			return
		}
		eval(i)
	}
}

func (e evaluator) sweepPooled(m int, eval func(i int)) {
	if obs.Enabled() {
		obs.Counter("selection.sweep.parallel_batches").Inc()
		obs.Counter("selection.sweep.parallel_moves").Add(int64(m))
	}
	e.pool.run(m, e.ctx, eval)
}
