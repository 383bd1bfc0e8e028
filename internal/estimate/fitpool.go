package estimate

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"freshsource/internal/obs"
)

// FitOptions tunes the model-fitting pipeline of NewFit.
type FitOptions struct {
	// Workers bounds the fit pool shared by the per-subdomain world-model
	// stage and the per-source profile stage: 0 uses GOMAXPROCS, 1 fits
	// sequentially inline, n > 1 fans across n goroutines. The fitted
	// Estimator is byte-identical at any worker count: every fit writes
	// into a pre-sized slot and no result depends on completion order.
	Workers int
}

func (o FitOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// fitStride bounds how many sequential fits run between context checks on
// the single-worker path; individual fits dominate, so the check is
// amortized to noise.
const fitStride = 8

// fitSweep runs eval(i) for every i in [0, m), fanning across w workers
// with dynamic index dealing (the selection sweep pattern: workers pull
// the next index off a shared atomic counter, so one expensive fit doesn't
// stall a fixed partition). eval must write its outcome only to storage
// indexed by i — never to shared state — which makes the sweep's result
// independent of evaluation order. With one worker the fits run inline in
// index order. A canceled context stops the sweep early, leaving the
// remaining slots untouched; callers must check ctx before reducing the
// outputs.
func fitSweep(ctx context.Context, w, m int, eval func(i int)) {
	if min(w, m) > 1 && obs.Enabled() {
		obs.Counter("estimate.fit.pool_batches").Inc()
		obs.Counter("estimate.fit.pool_tasks").Add(int64(m))
	}
	deal(ctx, w, m, eval)
}

// deal is fitSweep without the pool counters; SetState.BuildTicks splits
// tick builds with it.
func deal(ctx context.Context, w, m int, eval func(i int)) {
	if w > m {
		w = m
	}
	if w <= 1 {
		for i := 0; i < m; i++ {
			if i%fitStride == 0 && ctx.Err() != nil {
				return
			}
			eval(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= m {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
}
