package estimate

import (
	"context"
	"errors"
	"fmt"

	"freshsource/internal/obs"
	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/timeline"
	"freshsource/internal/world"
)

// Accumulator maintains, per source, the sufficient statistics behind a
// full NewFit — the Kaplan–Meier capture index, the entity-state map and
// the schedule fold (see profile.Tracker) — so streamed observations can
// advance the training cut and refit the estimator without rescanning any
// source history.
//
// The contract, pinned by TestStreamingRefitEquivalence: after any sequence
// of Advance calls ending at cut c, Build returns an Estimator
// byte-identical to NewFit over sources whose logs are the archived events
// plus every streamed delta, fitted at t0 = c. The exactness argument:
//
//   - All fitted quantities are sums and order-statistics over tick-valued
//     integer observations held in float64 (every value < 2^53), so
//     accumulation is exact and the folds commute with batching.
//   - The per-source statistics are pure folds over the time-ordered event
//     stream; Advance feeds events in exactly the order a cold Log sort
//     would produce them (profile.Tracker.Extend's merge).
//   - The world side (per-point MLEs and lookup tables) depends only on the
//     immutable world and the cut, and is re-derived at each Build through
//     the same FitWorldPoint/setModel path NewFit uses.
//   - Censored delay durations (cut − tick) depend on the cut itself, so
//     Build re-enumerates observations through the one shared enumeration
//     loop; what the delta-maintained state buys is never touching raw
//     event logs again — per-epoch cost is proportional to the corpus, not
//     to accumulated history.
//
// An Accumulator is not safe for concurrent use; callers (the ingestion
// epoch pipeline) serialize Advance/Build.
type Accumulator struct {
	w        *world.World
	srcs     []*source.Source
	pts      []world.DomainPoint
	maxT     timeline.Tick
	cut      timeline.Tick
	workers  int
	trackers []*profile.Tracker
	// broken latches a failed or canceled Advance: a partially extended
	// tracker set no longer matches any consistent cut, so every later call
	// fails loudly instead of producing a silently wrong fit.
	broken error
}

// NewAccumulator builds an accumulator positioned at cut t0 over the query
// domain pts (nil = every world point), scanning each source's archived
// history once — the same prefix a cold fit at t0 would consume. The
// per-source scans fan across opt.Workers (0 = GOMAXPROCS).
func NewAccumulator(ctx context.Context, w *world.World, srcs []*source.Source, t0, maxT timeline.Tick, pts []world.DomainPoint, opt FitOptions) (*Accumulator, error) {
	if len(srcs) == 0 {
		return nil, errors.New("estimate: no sources")
	}
	if maxT <= t0 {
		return nil, fmt.Errorf("estimate: maxT %d must exceed t0 %d", maxT, t0)
	}
	if pts == nil {
		pts = w.Points()
	}
	a := &Accumulator{
		w:        w,
		srcs:     srcs,
		pts:      pts,
		maxT:     maxT,
		cut:      t0,
		workers:  opt.workers(),
		trackers: make([]*profile.Tracker, len(srcs)),
	}
	defer obs.Start("estimate.stream.init.seconds").End()
	errs := make([]error, len(srcs))
	fitSweep(ctx, a.workers, len(srcs), func(i int) {
		tr, err := profile.NewTracker(w, srcs[i], t0, pts)
		if err != nil {
			errs[i] = err
			return
		}
		a.trackers[i] = tr
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: tracker init canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Cut returns the current training cut.
func (a *Accumulator) Cut() timeline.Tick { return a.cut }

// MaxT returns the largest future tick estimators built here support; the
// cut must stay strictly below it.
func (a *Accumulator) MaxT() timeline.Tick { return a.maxT }

// Advance folds one committed epoch: the cut moves to newCut and each
// source's tracker consumes its archived events in (cut, newCut] merged
// with perSource[i] — that source's accepted streamed observations, sorted
// by timeline.Less with ticks in (cut, newCut]. newCut must stay strictly
// below MaxT so the estimator keeps a non-empty future window. Any error
// (or cancellation) poisons the accumulator: tracker state may be
// partially advanced and no longer matches a consistent cut.
func (a *Accumulator) Advance(ctx context.Context, newCut timeline.Tick, perSource [][]timeline.Event) error {
	if a.broken != nil {
		return fmt.Errorf("estimate: accumulator poisoned by earlier failure: %w", a.broken)
	}
	if len(perSource) != len(a.srcs) {
		return fmt.Errorf("estimate: %d event slices for %d sources", len(perSource), len(a.srcs))
	}
	if newCut <= a.cut {
		return fmt.Errorf("estimate: cut must advance: %d -> %d", a.cut, newCut)
	}
	if newCut >= a.maxT {
		return fmt.Errorf("estimate: cut %d must stay below maxT %d", newCut, a.maxT)
	}
	defer obs.Start("estimate.stream.advance.seconds").End()
	errs := make([]error, len(a.srcs))
	fitSweep(ctx, a.workers, len(a.srcs), func(i int) {
		errs[i] = a.trackers[i].Extend(newCut, perSource[i])
	})
	if err := ctx.Err(); err != nil {
		a.broken = err
		return fmt.Errorf("estimate: advance canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			a.broken = err
			return err
		}
	}
	a.cut = newCut
	return nil
}

// Build fits an estimator at the current cut from the maintained
// statistics: fresh per-point world models (the world is immutable, so
// refitting at the new cut is exact by construction) plus per-source
// candidates derived from the trackers, assembled through the same
// setModel/candidateFromProfile/compactTables pipeline NewFit uses. Build
// does not mutate the accumulator, so a failed downstream publish can
// simply retry it.
func (a *Accumulator) Build(ctx context.Context) (*Estimator, error) {
	if a.broken != nil {
		return nil, fmt.Errorf("estimate: accumulator poisoned by earlier failure: %w", a.broken)
	}
	defer obs.Start("estimate.stream.build.seconds").End()
	e := &Estimator{T0: a.cut, MaxT: a.maxT, points: a.pts}
	e.allocModelSlots()
	{
		errs := make([]error, len(a.pts))
		fitSweep(ctx, a.workers, len(a.pts), func(j int) {
			m, err := FitWorldPoint(a.w, a.cut, a.pts[j])
			if err != nil {
				errs[j] = err
				return
			}
			e.setModel(j, m, a.w)
		})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("estimate: refit canceled: %w", err)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	maxDelay := int(a.maxT - a.cut + 1)
	e.cands = make([]*Candidate, len(a.srcs))
	errs := make([]error, len(a.srcs))
	fitSweep(ctx, a.workers, len(a.srcs), func(i int) {
		prof, err := a.trackers[i].Build()
		if err != nil {
			errs[i] = err
			return
		}
		e.cands[i] = e.candidateFromProfile(prof, a.srcs[i], i, maxDelay)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: refit canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.compactTables()
	obs.Counter("estimate.stream.builds").Inc()
	return e, nil
}
