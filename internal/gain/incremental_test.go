package gain

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"freshsource/internal/obs"
	"freshsource/internal/timeline"
)

// TestProfitValueAddMatchesValue pins the incremental-oracle contract:
// ValueAdd(BeginAdd(set), x) is bit-identical to Value(set ∪ {x}) — not
// approximately equal — and counts exactly one oracle call (BeginAdd counts
// none), so OracleCalls stays identical across the two paths.
func TestProfitValueAddMatchesValue(t *testing.T) {
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	ticks := []timeline.Tick{210, 230, 250}
	p, err := NewProfit(e, ticks, Quad{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}

	n := e.NumCandidates()
	sets := [][]int{nil, {0}, {1}, {0, 2}, {2, 1}}
	for _, set := range sets {
		member := make(map[int]bool)
		for _, i := range set {
			member[i] = true
		}
		p.ResetCalls()
		st := p.BeginAdd(set)
		if st == nil {
			t.Fatalf("BeginAdd(%v) declined", set)
		}
		if p.Calls() != 0 {
			t.Errorf("BeginAdd(%v) counted %d calls, want 0", set, p.Calls())
		}
		for x := 0; x < n; x++ {
			if member[x] {
				continue
			}
			got := p.ValueAdd(st, x)
			want := p.Value(append(append([]int(nil), set...), x))
			if got != want {
				t.Errorf("ValueAdd(%v, %d) = %v, Value = %v (not bit-identical)", set, x, got, want)
			}
		}
	}

	// Call accounting: one ValueAdd counts like one Value.
	p.ResetCalls()
	st := p.BeginAdd([]int{0})
	p.ValueAdd(st, 1)
	if p.Calls() != 1 {
		t.Errorf("ValueAdd counted %d calls, want 1", p.Calls())
	}
}

// TestProfitValueAddZeroAlloc pins the steady-state probe: once a state's
// miss tables are warm, ValueAdd runs entirely on pooled scratch and
// allocates nothing per probe.
func TestProfitValueAddZeroAlloc(t *testing.T) {
	e, _ := buildFixture(t)
	cm, err := NewSharedItemCost(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfit(e, []timeline.Tick{210, 230, 250}, Linear{Metric: Coverage}, cm)
	if err != nil {
		t.Fatal(err)
	}
	st := p.BeginAdd([]int{0})
	p.ValueAdd(st, 1) // warm the per-tick miss tables and the probe pool
	if raceEnabled {
		t.Skip("race runtime allocates for its own bookkeeping")
	}
	if avg := testing.AllocsPerRun(200, func() { p.ValueAdd(st, 1) }); avg != 0 {
		t.Errorf("warm ValueAdd allocates %v per run, want 0", avg)
	}
}

// countdownCtx is a context whose Err turns context.Canceled after its
// first n calls; calls counts them all.
type countdownCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestValueAddBuildsOnFirstProbe pins when a state's tick caches are
// built: not by BeginAddWorkers — a set no probe reaches builds nothing —
// but by the first ValueAdd, once. A context canceled part-way through that
// build stops it within a chunk per worker, publishes no tick, and makes
// the probe return NaN; a state built with a live context then matches.
func TestValueAddBuildsOnFirstProbe(t *testing.T) {
	e, _ := buildFixture(t)
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	var ticks []timeline.Tick
	for tk := timeline.Tick(201); tk < 290; tk++ {
		ticks = append(ticks, tk)
	}
	p, err := NewProfit(e, ticks, Linear{Metric: Coverage}, nil)
	if err != nil {
		t.Fatal(err)
	}
	builds := obs.Counter("estimate.setstate.tick_builds")
	want := p.Value([]int{0, 1})

	b0 := builds.Value()
	st := p.BeginAddWorkers(context.Background(), []int{0}, 2)
	if n := builds.Value() - b0; n != 0 {
		t.Fatalf("BeginAddWorkers built %d ticks before any probe", n)
	}
	if got := p.ValueAdd(st, 1); got != want {
		t.Errorf("ValueAdd = %v, Value = %v", got, want)
	}
	if n := builds.Value() - b0; n != int64(len(ticks)) {
		t.Errorf("first probe built %d ticks, want %d", n, len(ticks))
	}
	p.ValueAdd(st, 2)
	if n := builds.Value() - b0; n != int64(len(ticks)) {
		t.Errorf("second probe rebuilt ticks: %d builds, want %d", n, len(ticks))
	}

	const workers, allowed = 2, 3
	ctx := &countdownCtx{Context: context.Background(), n: allowed}
	b0 = builds.Value()
	if got := p.ValueAdd(p.BeginAddWorkers(ctx, []int{0}, workers), 1); !math.IsNaN(got) {
		t.Errorf("probe of a canceled build = %v, want NaN", got)
	}
	// Each worker checks ctx before every chunk and stops at the first
	// cancellation, and the build checks once more before publishing; a
	// build that ran on would check once per tick here.
	if n := ctx.calls.Load(); n > allowed+workers+1 {
		t.Errorf("canceled build checked ctx %d times, want ≤ %d", n, allowed+workers+1)
	}
	if n := builds.Value() - b0; n != 0 {
		t.Errorf("canceled build published %d ticks", n)
	}
	if got := p.ValueAdd(p.BeginAddWorkers(context.Background(), []int{0}, workers), 1); got != want {
		t.Errorf("ValueAdd after a canceled build = %v, want %v", got, want)
	}
}
