package main

import (
	"math"
	"sort"
)

// stat summarises repeated readings of one metric. Value is the figure
// the metric reports — the median, except where measure says otherwise —
// and the quartiles are the run-to-run spread -compare judges a
// difference against.
type stat struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarise computes the quartiles the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so spreads read
// the same here and in the harness that gates the benchmark.
func summarise(unit string, values []float64) stat {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return stat{Unit: unit}
	}
	s := stat{Unit: unit, Min: v[0], Max: v[n-1], N: n, Value: v[0], Median: v[0], Q1: v[0], Q3: v[0]}
	if n == 1 {
		return s
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = quartile(1), quartile(2), quartile(3)
	s.Value = s.Median
	return s
}

func median(values []float64) float64 { return summarise("", values).Median }

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// resolution is how finely n readings with this spread pin down their
// centre: the spread over the square root of n.
func (s stat) resolution() float64 {
	if s.N == 0 {
		return 0
	}
	return s.spread() / math.Sqrt(float64(s.N))
}
