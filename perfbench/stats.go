package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p90 is reported only from at least 100 samples.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
// It refuses when fewer than minTail samples lie beyond the percentile, so
// a tail percentile is never read off a handful of jobs.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if beyond := n - rank; beyond < minTail && p > 50 {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample, or the mean of the two middle samples for
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values; it refuses a
// non-positive input rather than silently zeroing the result.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	var s float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geomean input %v is not a positive finite number", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// cellRates accumulates, per cell, simulated instructions and the host
// nanoseconds of the jobs that retired them.
type cellRates struct {
	order []string
	instr map[string]uint64
	ns    map[string]int64
}

func newCellRates() *cellRates {
	return &cellRates{instr: map[string]uint64{}, ns: map[string]int64{}}
}

func (c *cellRates) add(cell string, instr uint64, ns int64) {
	if _, ok := c.instr[cell]; !ok {
		c.order = append(c.order, cell)
	}
	c.instr[cell] += instr
	c.ns[cell] += ns
}

// mips returns one cell's simulated instructions per host microsecond.
func (c *cellRates) mips(cell string) float64 {
	if c.ns[cell] <= 0 {
		return 0
	}
	return float64(c.instr[cell]) * 1e3 / float64(c.ns[cell])
}

// geoMIPS is the Table II convention: the geometric mean over cells of
// cell MIPS, so a gain on one cell shows however slow the others are.
func (c *cellRates) geoMIPS() (float64, error) {
	vals := make([]float64, 0, len(c.order))
	for _, k := range c.order {
		vals = append(vals, c.mips(k))
	}
	return geomean(vals)
}
