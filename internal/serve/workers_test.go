package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
)

// workerBodies are one select per solve path freshd serves.
var workerBodies = []struct {
	alg  core.Algorithm
	lazy bool
	body string
}{
	{core.Greedy, false, `{"algorithm":"greedy","future":4}`},
	{core.MaxSub, false, `{"algorithm":"maxsub","future":4}`},
	{core.GRASP, false, `{"algorithm":"grasp","future":4,"rounds":3}`},
	{core.Budgeted, false, `{"algorithm":"budgeted","future":4,"budget":0.3}`},
	{core.LazyGreedy, false, `{"algorithm":"lazygreedy","future":4}`},
	{core.Greedy, true, `{"algorithm":"greedy","future":4,"lazy":true}`},
}

// directBody solves one workerBodies entry with a direct SolveContext on
// the given number of sweep workers (speculation off, as freshd runs it
// when workers > 1) and encodes it as /v1/select does.
func directBody(t *testing.T, prob *core.Problem, alg core.Algorithm, lazy bool, workers int) []byte {
	t.Helper()
	sel, err := prob.Solve(alg, core.SolveOptions{Kappa: 5, Rounds: 3, Seed: 1, Lazy: lazy, Workers: workers, SpecStride: -1})
	if err != nil {
		t.Fatal(err)
	}
	resp := SelectResponse{
		Algorithm:   string(sel.Algorithm),
		Set:         emptyNotNil(sel.Set),
		Names:       emptyNotNil(sel.Names),
		Divisors:    emptyNotNil(sel.Divisors),
		Profit:      sel.Profit,
		Gain:        sel.Gain,
		AvgCoverage: sel.AvgCoverage,
		AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls,
	}
	for _, tk := range prob.Ticks {
		resp.Ticks = append(resp.Ticks, int64(tk))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestSelectBodiesIndependentOfWorkers: freshd runs each select's sweep
// on all of the host's cores, so every solve path must answer the same
// bytes — oracle_calls included — at GOMAXPROCS 1 and 2, and as a direct
// SolveContext on one worker (the sequential solve) or four.
func TestSelectBodiesIndependentOfWorkers(t *testing.T) {
	// The shared fixture's ten sources yield a one-source selection; with
	// twenty, CELF's speculation would visibly change oracle_calls.
	cfg := dataset.DefaultBLConfig()
	cfg.Locations, cfg.Categories, cfg.NumSources = 8, 5, 20
	cfg.Horizon, cfg.T0, cfg.Scale = 220, 120, 0.4
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Train(d.World, d.Sources, d.T0, core.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := MakeGain("linear", "coverage", d.World.NumEntities())
	if err != nil {
		t.Fatal(err)
	}
	{
		prob, err := core.NewProblem(tr, SpreadTicks(d.T0, d.Horizon(), 4), g, core.ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lazy, _ := prob.Solve(core.LazyGreedy, core.SolveOptions{})
		spec, _ := prob.Solve(core.LazyGreedy, core.SolveOptions{Workers: 2})
		if lazy == nil || spec == nil || spec.OracleCalls == lazy.OracleCalls {
			t.Fatal("speculative CELF probes as often as lazy CELF here; the fixture cannot show a worker-dependent body")
		}
	}
	want := make([][]byte, len(workerBodies))
	for i, wb := range workerBodies {
		var budget float64
		if wb.alg == core.Budgeted {
			budget = 0.3
		}
		prob, err := core.NewProblem(tr, SpreadTicks(d.T0, d.Horizon(), 4), g, core.ProblemOptions{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = directBody(t, prob, wb.alg, wb.lazy, 1)
		if got := directBody(t, prob, wb.alg, wb.lazy, 4); !bytes.Equal(got, want[i]) {
			t.Errorf("%s: four-worker solve differs from the sequential one:\n got %s\nwant %s", wb.body, got, want[i])
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		srv, err := New(d, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, wb := range workerBodies {
			rec := postJSON(t, srv.Handler(), "/v1/select", wb.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("gomaxprocs=%d %s: %d %s", procs, wb.body, rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), want[i]) {
				t.Errorf("gomaxprocs=%d %s: served body differs from the sequential solve:\n got %s\nwant %s",
					procs, wb.body, rec.Body.String(), want[i])
			}
		}
		srv.Close()
	}
}
