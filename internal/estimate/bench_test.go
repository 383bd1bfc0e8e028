package estimate

import (
	"context"
	"testing"

	"freshsource/internal/source"
	"freshsource/internal/stats"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

func benchRNG(seed int64) *stats.RNG { return stats.NewRNG(seed) }

// benchmark fixtures are built once.
var (
	benchEst  *Estimator
	benchW    *world.World
	benchSrcs []*source.Source
)

func getBenchFixture(b *testing.B) (*world.World, []*source.Source) {
	b.Helper()
	if benchW != nil {
		return benchW, benchSrcs
	}
	w, err := world.Generate(world.Config{
		Subdomains: []world.SubdomainSpec{
			{Point: world.DomainPoint{Location: 0, Category: 0}, InitialEntities: 2000, LambdaAppear: 5, GammaDisappear: 0.01, GammaUpdate: 0.02},
			{Point: world.DomainPoint{Location: 1, Category: 0}, InitialEntities: 2000, LambdaAppear: 5, GammaDisappear: 0.01, GammaUpdate: 0.02},
		},
		Horizon: 500,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var srcs []*source.Source
	for i := 0; i < 20; i++ {
		s, err := source.Observe(w, source.ID(i), source.Spec{
			Name:           "b",
			UpdateInterval: 1,
			Points:         w.Points(),
			Insert:         source.CaptureSpec{Prob: 0.6, Delay: source.ExponentialDelay{Rate: 0.3}},
			Delete:         source.CaptureSpec{Prob: 0.5, Delay: source.ExponentialDelay{Rate: 0.2}},
			Update:         source.CaptureSpec{Prob: 0.5, Delay: source.ExponentialDelay{Rate: 0.2}},
		}, benchRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, s)
	}
	benchW, benchSrcs = w, srcs
	return w, srcs
}

func getBenchEstimator(b *testing.B) *Estimator {
	b.Helper()
	if benchEst != nil {
		return benchEst
	}
	w, srcs := getBenchFixture(b)
	e, err := New(w, srcs, 300, 490, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchEst = e
	return e
}

// BenchmarkEstimatorNew measures the cold-start fit — the whole Section 4
// pipeline: per-subdomain world-model MLEs plus per-source profile builds,
// signature scans and effectiveness tabulation. "seq" is the
// single-worker baseline; "parallel" fans both fit stages across 4 workers
// (core-bound: on a single-CPU host the two are expected to tie). The
// companion "cached" variant lives in internal/modelcache and loads the
// same fit from the persistent model cache instead of computing it.
func BenchmarkEstimatorNew(b *testing.B) {
	w, srcs := getBenchFixture(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"parallel", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewFit(context.Background(), w, srcs, 300, 490, nil, FitOptions{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQualityMulti measures the profit oracle's core: a 10-candidate
// set evaluated at 10 future ticks over 2 subdomains.
func BenchmarkQualityMulti(b *testing.B) {
	e := getBenchEstimator(b)
	set := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	ticks := []timeline.Tick{310, 330, 350, 370, 390, 410, 430, 450, 470, 490}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.QualityMulti(set, ticks)
	}
}

// BenchmarkQualitySingleton is the singleton-oracle cost that dominates
// greedy construction phases.
func BenchmarkQualitySingleton(b *testing.B) {
	e := getBenchEstimator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Quality([]int{i % 20}, 400)
	}
}

// BenchmarkQualityMultiAdd contrasts the greedy candidate probe before and
// after the incremental SetState API: "scratch" re-unions the whole set per
// probe (the old oracle cost), "incremental" layers one candidate on the
// cached state via the triple-popcount kernel.
func BenchmarkQualityMultiAdd(b *testing.B) {
	e := getBenchEstimator(b)
	set := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	ticks := []timeline.Tick{310, 330, 350, 370, 390, 410, 430, 450, 470, 490}
	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := 2*(i%10) + 1 // odd candidates are outside the set
			e.QualityMulti(append(append([]int(nil), set...), x), ticks)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		st := e.NewSetState(set)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := 2*(i%10) + 1
			e.QualityMultiAddInto(st, x, ticks, nil)
		}
	})
}

// BenchmarkProbeBL measures the selection probe on freshd's default served
// world (BL, scale 0.5: 43 sources, 1,224 points, 390 future ticks) rather
// than the 2-point fixture above: one QualityMultiAddInto per op, cycling
// over every candidate outside the base set, on a warm state. "empty"
// probes against the empty set (the first greedy round), "set3" against a
// three-source set; "t1" evaluates the last tick only, "t6" six spread
// ticks. The warm probe must not allocate.
func BenchmarkProbeBL(b *testing.B) {
	_, e := blEstimator(b)
	span := e.MaxT - e.T0
	spread := func(n int) []timeline.Tick {
		ts := make([]timeline.Tick, n)
		for i := range ts {
			ts[i] = e.T0 + span*timeline.Tick(i+1)/timeline.Tick(n)
		}
		return ts
	}
	for _, bc := range []struct {
		name  string
		set   []int
		ticks []timeline.Tick
	}{
		{"empty/t1", nil, spread(1)},
		{"set3/t1", []int{0, 7, 21}, spread(1)},
		{"set3/t6", []int{0, 7, 21}, spread(6)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := e.NewSetState(bc.set)
			member := make(map[int]bool)
			for _, i := range bc.set {
				member[i] = true
			}
			var xs []int
			for x := 0; x < e.NumCandidates(); x++ {
				if !member[x] {
					xs = append(xs, x)
				}
			}
			buf := make([]QualityEstimate, 0, len(bc.ticks))
			probe := func(i int) { buf = e.QualityMultiAddInto(st, xs[i%len(xs)], bc.ticks, buf[:0]) }
			probe(0) // warm the state's tick caches and the scratch pool
			if !raceEnabled {
				if avg := testing.AllocsPerRun(len(xs), func() { probe(1) }); avg != 0 {
					b.Fatalf("warm probe allocates %v per op, want 0", avg)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe(i)
			}
		})
	}
}
