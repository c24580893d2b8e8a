package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// samples at or below it. Zero for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples,
// ⌈p·n/100⌉ kept inside [1, n]. The small subtraction keeps a product that
// is a whole number in exact arithmetic (99.9 % of 10000) from rounding up
// past it in floating point.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailCandidates are the percentiles highestPercentile chooses from.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest candidate percentile whose
// nearest-rank value still has at least ten samples beyond it — the rule
// that decides which tail a sample of n can support. Below 20 samples not
// even the median qualifies and it returns 0.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// opSample is one closed-loop operation: when it started and ended relative
// to the window start, and how many units of work it completed.
type opSample struct {
	start, end time.Duration
	units      float64
}

// segmentRates splits [0, window) into n equal segments and returns the work
// rate (units/s) in each. An op's units are spread evenly over its own
// duration, so a segment boundary that falls inside a 1.5 s sweep credits
// each side with its share instead of quantising the segment to whole ops,
// and the op that straddles the window's end counts only for the part
// inside. Time between ops (launch_single's Synchronize) does no work.
func segmentRates(ops []opSample, window time.Duration, n int) []float64 {
	work := make([]float64, n)
	seg := window / time.Duration(n)
	for _, op := range ops {
		dur := op.end - op.start
		if dur <= 0 {
			if i := int(op.start / seg); i >= 0 && i < n {
				work[i] += op.units
			}
			continue
		}
		for i := range work {
			lo, hi := time.Duration(i)*seg, time.Duration(i+1)*seg
			if op.start > lo {
				lo = op.start
			}
			if op.end < hi {
				hi = op.end
			}
			if hi > lo {
				work[i] += op.units * float64(hi-lo) / float64(dur)
			}
		}
	}
	for i := range work {
		work[i] /= seg.Seconds()
	}
	return work
}

// segmentMedianRate is work_per_s: the median of the per-segment rates, so
// one stall on a shared host moves a segment and not the metric.
func segmentMedianRate(ops []opSample, window time.Duration, n int) float64 {
	return median(segmentRates(ops, window, n))
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validName checks a workload or metric name against the BENCHMARK.json
// contract: letters, digits, '_', '.', '-', at most 64, starting with a
// letter or digit.
func validName(s string) error {
	if !nameRE.MatchString(s) {
		return fmt.Errorf("invalid name %q", s)
	}
	return nil
}

func validUnit(s string) error {
	if !unitRE.MatchString(s) {
		return fmt.Errorf("invalid unit %q", s)
	}
	return nil
}

// quartiles returns Q1, median, Q3 as Python's statistics.quantiles(n=4)
// computes them (exclusive method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
