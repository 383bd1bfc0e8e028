package core

import (
	"reflect"
	"sync"
	"testing"

	"freshsource/internal/gain"
)

// TestConcurrentParallelSolvesShareProblem: a server runs concurrent
// selects over one cached Problem, each fanning its sweeps — and its tick
// cache builds — across workers, while every probe borrows factor buffers
// from the one shared estimator's pool. Each solve must equal the
// sequential one, oracle calls included. Under -race (make race) this is
// the concurrency test of that sharing.
func TestConcurrentParallelSolvesShareProblem(t *testing.T) {
	d := getDataset(t)
	tr, err := Train(d.World, d.Sources, d.T0, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := NewProblem(tr, futureTicks(d), gain.Linear{Metric: gain.Coverage}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{Greedy, MaxSub, LazyGreedy}
	want := make([]*Selection, len(algs))
	for i, alg := range algs {
		if want[i], err = prob.Solve(alg, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		if len(want[i].Set) == 0 {
			t.Fatalf("%s selects nothing; the comparison is vacuous", alg)
		}
	}

	const solvers = 4
	var wg sync.WaitGroup
	for s := 0; s < solvers; s++ {
		for i, alg := range algs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := prob.Solve(alg, SolveOptions{Workers: 2 + s%2, SpecStride: -1})
				if err != nil {
					t.Error(err)
					return
				}
				got.Duration = want[i].Duration
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("solver %d %s: %+v, want %+v", s, alg, got, want[i])
				}
			}()
		}
	}
	wg.Wait()
}
