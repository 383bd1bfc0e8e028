package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"freshsource/internal/core"
	"freshsource/internal/estimate"
	"freshsource/internal/serve"
	"freshsource/internal/timeline"
	"freshsource/perfbench/load"
)

// reference holds the digests the served bodies must match. They are
// recorded from direct core.Problem.SolveContext and
// Estimator.QualityMultiState calls (see -record), never from a served
// response.
type reference struct {
	// Worlds maps a world seed ("1", "2") to its key digests.
	Worlds map[string]*worldRef `json:"worlds"`
}

type worldRef struct {
	Select  map[string]selectRef `json:"select"`
	Quality map[string]string    `json:"quality"`
}

type selectRef struct {
	Digest      string `json:"digest"`
	OracleCalls int    `json:"oracle_calls"`
}

func loadReference(path string) (*reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", path, err)
	}
	return &ref, nil
}

func (r *reference) selectDigest(world int64, k load.SelectKey) (selectRef, bool) {
	w := r.Worlds[fmt.Sprint(world)]
	if w == nil {
		return selectRef{}, false
	}
	s, ok := w.Select[k.Name()]
	return s, ok
}

func (r *reference) qualityDigest(world int64, k load.QualityKey) (string, bool) {
	w := r.Worlds[fmt.Sprint(world)]
	if w == nil {
		return "", false
	}
	s, ok := w.Quality[k.Name()]
	return s, ok
}

// directSelectBody solves one key directly over tr and encodes it exactly as
// freshd's /v1/select does.
func directSelectBody(ctx context.Context, tr *core.Trained, t0, horizon timeline.Tick, numEntities int, k load.SelectKey) ([]byte, int, error) {
	ticks := serve.SpreadTicks(t0, horizon, k.Future)
	g, err := serve.MakeGain(k.Gain, k.Metric, numEntities)
	if err != nil {
		return nil, 0, err
	}
	p, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{Budget: k.Budget})
	if err != nil {
		return nil, 0, err
	}
	sel, err := p.SolveContext(ctx, core.Algorithm(k.Algorithm), core.SolveOptions{Kappa: 5, Rounds: 20, Seed: 1})
	if err != nil {
		return nil, 0, err
	}
	resp := serve.SelectResponse{
		Algorithm:   string(sel.Algorithm),
		Set:         nonNil(sel.Set),
		Names:       nonNil(sel.Names),
		Divisors:    nonNil(sel.Divisors),
		Profit:      sel.Profit,
		Gain:        sel.Gain,
		AvgCoverage: sel.AvgCoverage,
		AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls,
		Ticks:       ticks64(ticks),
	}
	return append(mustJSON(resp), '\n'), sel.OracleCalls, nil
}

// directQualityBody evaluates one quality key directly over est and encodes
// it exactly as freshd's /v1/quality does.
func directQualityBody(est *estimate.Estimator, t0, horizon timeline.Tick, k load.QualityKey) []byte {
	ticks := serve.SpreadTicks(t0, horizon, k.Future)
	qs := est.QualityMultiState(est.NewSetState(k.Set), ticks)
	resp := serve.QualityResponse{
		Set:    nonNil(k.Set),
		Ticks:  ticks64(ticks),
		Points: make([]serve.QualityPoint, len(qs)),
	}
	for i, q := range qs {
		resp.Points[i] = serve.QualityPoint{
			Tick:            int64(ticks[i]),
			Coverage:        q.Coverage,
			LocalFreshness:  q.LocalFreshness,
			GlobalFreshness: q.GlobalFreshness,
			Accuracy:        q.Accuracy,
			ExpectedOmega:   q.ExpectedOmega,
			ExpectedSize:    q.ExpectedSize,
		}
		resp.AvgCoverage += q.Coverage
		resp.AvgAccuracy += q.Accuracy
	}
	if len(qs) > 0 {
		resp.AvgCoverage /= float64(len(qs))
		resp.AvgAccuracy /= float64(len(qs))
	}
	return append(mustJSON(resp), '\n')
}

func nonNil[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs
}

func ticks64(ts []timeline.Tick) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = int64(t)
	}
	return out
}

// recordReference computes every reference digest from direct calls and
// writes them to path: cold-select's and warm-mix's select keys, and the
// hot quality keys, on world seeds 1 and 2.
func recordReference(path string) error {
	ctx := context.Background()
	ref := reference{Worlds: map[string]*worldRef{}}
	for _, seed := range []int64{1, 2} {
		d, err := genWorld(seed)
		if err != nil {
			return err
		}
		tr, err := core.TrainContext(ctx, d.World, d.Sources, d.T0, core.TrainOptions{})
		if err != nil {
			return err
		}
		wr := &worldRef{Select: map[string]selectRef{}, Quality: map[string]string{}}
		keys := load.HotSelectKeys()
		if seed == 1 {
			keys = append(keys, load.ColdSelectKeys()...)
		}
		for _, k := range keys {
			if _, done := wr.Select[k.Name()]; done {
				continue
			}
			body, calls, err := directSelectBody(ctx, tr, d.T0, d.Horizon(), d.World.NumEntities(), k)
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name(), err)
			}
			wr.Select[k.Name()] = selectRef{Digest: digest(body), OracleCalls: calls}
			fmt.Fprintf(os.Stderr, "world %d %s: %d oracle calls\n", seed, k.Name(), calls)
		}
		for _, k := range load.HotQualityKeys() {
			wr.Quality[k.Name()] = digest(directQualityBody(tr.Est, d.T0, d.Horizon(), k))
		}
		ref.Worlds[fmt.Sprint(seed)] = wr
	}
	raw, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
