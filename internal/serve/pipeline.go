// Package serve is the long-running face of the library: a zero-dependency
// net/http daemon that loads one world/source snapshot at startup, fits the
// Poisson/exponential world models and Kaplan–Meier effectiveness
// distributions once, and answers selection and quality queries over JSON,
// reusing the fitted models and cached evaluation state across requests
// (see Registry). cmd/freshd is the binary; cmd/freshselect shares this
// package's pipeline helpers so a served selection is byte-identical to a
// one-shot CLI run over the same snapshot and options.
package serve

import (
	"fmt"

	"freshsource/internal/dataset"
	"freshsource/internal/gain"
	"freshsource/internal/snapio"
	"freshsource/internal/timeline"
)

// LoadDataset resolves the snapshot a command serves or solves over: a
// persisted dataset directory when load is non-empty, else a generated
// corpus ("bl" or "gdelt") at the given scale and seed.
func LoadDataset(load, kind string, scale float64, seed int64) (*dataset.Dataset, error) {
	if load != "" {
		return snapio.Read(load)
	}
	switch kind {
	case "bl":
		cfg := dataset.DefaultBLConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		return dataset.GenerateBL(cfg)
	case "gdelt":
		cfg := dataset.DefaultGDELTConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		return dataset.GenerateGDELT(cfg)
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", kind)
	}
}

// SpreadTicks returns n future time points of interest evenly spread over
// (t0, horizon−1], the Tf layout of freshselect and the paper's
// experiments.
func SpreadTicks(t0, horizon timeline.Tick, n int) []timeline.Tick {
	span := horizon - 1 - t0
	out := make([]timeline.Tick, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t0+span*timeline.Tick(i)/timeline.Tick(n))
	}
	return out
}

// FutureTicks is SpreadTicks behind the window check /v1/select,
// /v1/quality and freshselect share: future must lie in 1 … horizon−1−t0,
// the ticks of the evaluation window (t0, horizon−1]. Past the window
// SpreadTicks would repeat ticks down to t0 itself, and the count sizes an
// allocation, so a small request must not buy an unbounded one; at 0 there
// is no tick to evaluate.
func FutureTicks(t0, horizon timeline.Tick, future int) ([]timeline.Tick, error) {
	span := int(horizon - 1 - t0)
	if future < 1 {
		return nil, fmt.Errorf("future %d must be at least 1", future)
	}
	if future > span {
		return nil, fmt.Errorf("future %d exceeds the %d ticks of the evaluation window (%d, %d]",
			future, span, t0, horizon-1)
	}
	return SpreadTicks(t0, horizon, future), nil
}

// ParseMetric resolves a metric name ("coverage", "local-freshness",
// "global-freshness", "accuracy").
func ParseMetric(name string) (gain.Metric, error) {
	switch name {
	case "coverage":
		return gain.Coverage, nil
	case "local-freshness":
		return gain.LocalFreshness, nil
	case "global-freshness":
		return gain.GlobalFreshness, nil
	case "accuracy":
		return gain.Accuracy, nil
	}
	return 0, fmt.Errorf("unknown metric %q", name)
}

// MakeGain builds the named gain function ("linear", "quad", "step",
// "data") over the named metric. numEntities sizes the data gain's Ω bound.
func MakeGain(name, metric string, numEntities int) (gain.Function, error) {
	m, err := ParseMetric(metric)
	if err != nil {
		return nil, err
	}
	switch name {
	case "linear":
		return gain.Linear{Metric: m}, nil
	case "quad":
		return gain.Quad{Metric: m}, nil
	case "step":
		return gain.Step{Metric: m}, nil
	case "data":
		return gain.Data{PerItem: 10, OmegaMax: float64(numEntities)}, nil
	}
	return nil, fmt.Errorf("unknown gain %q", name)
}
