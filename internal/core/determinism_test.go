package core

// Training must be bit-reproducible run to run: the serving layer caches
// fitted models and promises byte-identical responses for identical
// requests, which only holds if refitting the same snapshot yields the
// exact same floats. This pins the two historical offenders (map-ordered
// point iteration and map-ordered cost accumulation).

import (
	"testing"

	"freshsource/internal/gain"
)

func TestTrainRunToRunDeterminism(t *testing.T) {
	d := getDataset(t)
	ticks := futureTicks(d)
	var quals, costs, gains []float64
	for rep := 0; rep < 6; rep++ {
		tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{MaxT: ticks[len(ticks)-1]})
		if err != nil {
			t.Fatal(err)
		}
		quals = append(quals, tr.Est.Quality([]int{0, 3, 5}, ticks[2]).Coverage)
		costs = append(costs, tr.Cost.Cost(3)/tr.Cost.Total())
		p, err := NewProblem(tr, ticks, gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, _ := p.Profit().Summary([]int{0, 3, 5})
		gains = append(gains, g)
	}
	for i := 1; i < len(quals); i++ {
		if quals[i] != quals[0] {
			t.Errorf("quality rep %d: %.17g != %.17g", i, quals[i], quals[0])
		}
		if costs[i] != costs[0] {
			t.Errorf("cost rep %d: %.17g != %.17g", i, costs[i], costs[0])
		}
		if gains[i] != gains[0] {
			t.Errorf("gain rep %d: %.17g != %.17g", i, gains[i], gains[0])
		}
	}
}
