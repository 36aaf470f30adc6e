package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// nameRE is the alphabet BENCHMARK.json allows for metric and workload names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// checkNames refuses a workload or metric name BENCHMARK.json could not
// carry, or one used twice.
func checkNames() error {
	seen := map[string]bool{}
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if !validName(n) || seen[n] {
			return fmt.Errorf("name %q is used twice or is outside [A-Za-z0-9_.-]", n)
		}
		seen[n] = true
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailQuantile returns the highest of the usual reporting percentiles that
// still leaves at least ten samples beyond it in a sample of n (0.5 when
// even p75 does not): a tail read off fewer than ten samples is one slow
// request, not a distribution.
func tailQuantile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0.5
}

// sample is a timing sample reported as count, median and tail.
type sample struct {
	xs     []float64
	sorted bool
}

func (d *sample) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *sample) n() int { return len(d.xs) }

func (d *sample) q(q float64) float64 {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return quantile(d.xs, q)
}

func (d *sample) mean() float64 { return mean(d.xs) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minMedMax summarises per-slice values of one window.
func minMedMax(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{s[0], median(s), s[len(s)-1]}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
