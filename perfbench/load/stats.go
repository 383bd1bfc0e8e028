package load

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for an
// even count), or NaN for none.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method of Python's statistics.quantiles(n=4).
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := float64(i) * float64(n+1) / 4
		lo := int(math.Floor(j))
		frac := j - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*frac
	}
	return q(1), q(2), q(3)
}

// Tail is the highest reportable percentile of a sample.
type Tail struct {
	Percentile float64 // e.g. 90 for p90
	Value      float64
	Samples    int // sample count
	Beyond     int // samples above the percentile's rank
}

// tailLadder lists the percentiles TailPercentile may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest percentile of xs on the ladder p99.9,
// p99, p95, p90, p75, p50 that has at least ten samples beyond it, with the
// sample count. ok is false when even the median has fewer than ten
// samples beyond it.
func TailPercentile(xs []float64) (t Tail, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return Tail{Percentile: p, Value: s[rank-1], Samples: n, Beyond: n - rank}, true
		}
	}
	return Tail{Samples: n}, false
}
