package estimate

import (
	"errors"
	"fmt"

	"freshsource/internal/profile"
	"freshsource/internal/source"
	"freshsource/internal/world"
)

// This file implements the paper's future-work direction of Section 8:
// handling sources that appear over time. A newly appeared source has a
// short history, so its Kaplan–Meier effectiveness distributions are noisy
// (or empty). AddColdStartCandidate profiles the newcomer on whatever
// window it has and shrinks its effectiveness tables toward the pooled
// average of the established sources:
//
//	G̃(d) = (n·Ĝ(d) + k·Ḡ(d)) / (n + k)
//
// where n is the newcomer's number of delay observations, Ḡ the pooled
// (mean) table over existing base candidates, and k the prior strength in
// pseudo-observations. With n = 0 the newcomer inherits the fleet average;
// as history accrues the prior washes out.

// AddColdStartCandidate profiles a newly appeared source (typically one
// whose capture log only spans the tail of the training window), blends
// its effectiveness with the pooled prior of strength k, and appends it as
// a selectable candidate. It returns the new candidate's index.
func (e *Estimator) AddColdStartCandidate(w *world.World, s *source.Source, k float64) (int, error) {
	if k < 0 {
		return 0, errors.New("estimate: negative prior strength")
	}
	if len(e.cands) == 0 {
		return 0, errors.New("estimate: no established candidates to pool a prior from")
	}
	prof, err := profile.Build(w, s, e.T0, e.points)
	if err != nil {
		return 0, fmt.Errorf("estimate: profiling cold-start source: %w", err)
	}

	maxDelay := int(e.MaxT - e.T0 + 1)
	c := e.candidateFromProfile(prof, s, e.maxSourceIndex()+1, maxDelay)

	// Effective sample size: the exact (uncensored) delay observations. A
	// newcomer mostly produces censored observations for entities it never
	// had a fair chance to capture, so its raw tables are systematically
	// pessimistic — exactly what the prior corrects.
	var n float64
	for _, o := range prof.InsertDelays {
		if !o.Censored {
			n++
		}
	}
	c.gi = blend(c.gi, e.pooledTable(func(x *Candidate) []float64 { return x.gi }, maxDelay), n, k)
	c.gd = blend(c.gd, e.pooledTable(func(x *Candidate) []float64 { return x.gd }, maxDelay), n, k)
	c.gu = blend(c.gu, e.pooledTable(func(x *Candidate) []float64 { return x.gu }, maxDelay), n, k)

	// A newcomer with no usable coverage statistic inherits the fleet
	// average for the Cov(S,τ) factor of Eq. 10–11.
	if prof.CoverageT0 == 0 {
		var sum float64
		cnt := 0
		for _, x := range e.cands {
			if x.Divisor() == 1 {
				sum += x.Profile.CoverageT0
				cnt++
			}
		}
		if cnt > 0 {
			prof.CoverageT0 = sum / float64(cnt)
		}
	}

	e.cands = append(e.cands, c)
	return len(e.cands) - 1, nil
}

func (e *Estimator) maxSourceIndex() int {
	m := -1
	for _, c := range e.cands {
		if c.SourceIndex > m {
			m = c.SourceIndex
		}
	}
	return m
}

// pooledTable averages one effectiveness table across the established base
// (divisor-1) candidates.
func (e *Estimator) pooledTable(get func(*Candidate) []float64, maxDelay int) []float64 {
	out := make([]float64, maxDelay+1)
	cnt := 0
	for _, c := range e.cands {
		if c.Divisor() != 1 {
			continue
		}
		tab := get(c)
		for d := 0; d <= maxDelay && d < len(tab); d++ {
			out[d] += tab[d]
		}
		cnt++
	}
	if cnt > 0 {
		for d := range out {
			out[d] /= float64(cnt)
		}
	}
	return out
}

// blend mixes an observed table with a prior table at n observations vs k
// pseudo-observations.
func blend(obs, prior []float64, n, k float64) []float64 {
	if n+k == 0 {
		return obs
	}
	out := make([]float64, len(obs))
	for d := range obs {
		p := prior[d]
		out[d] = (n*obs[d] + k*p) / (n + k)
	}
	return out
}
