package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations or values to summarize.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks (NaN when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) max() float64 {
	m := math.NaN()
	for _, v := range s {
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
