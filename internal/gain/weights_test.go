package gain

import (
	"math"
	"testing"

	"freshsource/internal/timeline"
)

func TestSetWeightsValidation(t *testing.T) {
	e, _ := buildFixture(t)
	cm, _ := NewSharedItemCost(e, 10)
	p, err := NewProfit(e, []timeline.Tick{210, 250}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWeights([]float64{1}); err == nil {
		t.Error("want length-mismatch error")
	}
	if err := p.SetWeights([]float64{1, -1}); err == nil {
		t.Error("want negative-weight error")
	}
	if err := p.SetWeights([]float64{0, 0}); err == nil {
		t.Error("want zero-sum error")
	}
	if err := p.SetWeights(nil); err != nil {
		t.Errorf("nil should reset: %v", err)
	}
}

func TestWeightedAggregate(t *testing.T) {
	e, _ := buildFixture(t)
	cm, _ := NewSharedItemCost(e, 10)
	ticks := []timeline.Tick{210, 250}
	p, err := NewProfit(e, ticks, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	set := []int{0}

	// Plain average equals equal weights.
	plain := p.Value(set)
	if err := p.SetWeights([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := p.Value(set); math.Abs(got-plain) > 1e-12 {
		t.Errorf("equal weights %v != plain average %v", got, plain)
	}

	// All weight on one tick equals evaluating only that tick.
	if err := p.SetWeights([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	wOnly := p.Value(set)
	pSingle, err := NewProfit(e, []timeline.Tick{210}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if got := pSingle.Value(set); math.Abs(got-wOnly) > 1e-12 {
		t.Errorf("degenerate weighting %v != single-tick profit %v", wOnly, got)
	}

	// The reported gain respects weights too.
	if g, _ := p.Summary(set); g < wOnly {
		t.Error("gain-only below profit under weighting")
	}
}
