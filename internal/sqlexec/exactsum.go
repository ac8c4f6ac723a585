package sqlexec

import (
	"math"
	"math/big"
)

// exactSum sums float64s exactly, so that the sum is the same in any order
// and under any split into partial sums: Shewchuk's non-overlapping partials
// (1997, "Adaptive Precision Floating-Point Arithmetic"), as CPython's
// math.fsum keeps them. hi is the largest; the smaller ones are stored from
// the first inexact addition on. round rounds once, to nearest even. A NaN
// or ±Inf addend makes hi the IEEE sum of the non-finite addends, and a sum
// that reaches 2^1022, where a partial could overflow, goes on in math/big.
type exactSum struct {
	hi float64
	lo *sumSpill
	on bool // added to: the sum starts at −0.0, so only −0.0s sum to −0.0
}

type sumSpill struct {
	p   []float64 // ascending in magnitude, all below hi
	buf [8]float64
	big *big.Float // the whole sum, past 2^1022
}

// reset empties s for another sum and keeps its spill, the partials'
// memory.
func (s *exactSum) reset() {
	lo := s.lo
	*s = exactSum{}
	if lo != nil {
		lo.p, lo.big = lo.buf[:0], nil
		s.lo = lo
	}
}

// twoSum returns a+b rounded and its rounding error (Knuth).
func twoSum(a, b float64) (float64, float64) {
	s := a + b
	v := s - a
	return s, (a - (s - v)) + (b - v)
}

func (s *exactSum) add(x float64) {
	if !s.on {
		s.hi, s.on = math.Copysign(0, -1), true
	}
	switch {
	case s.hi-s.hi != 0: // the sum is NaN or ±Inf: only non-finite addends count
		if x-x != 0 {
			s.hi += x
		}
	case x-x != 0:
		s.hi, s.lo = x, nil
	case s.lo != nil && s.lo.big != nil || math.Abs(x) >= 0x1p1022 || math.Abs(s.hi) >= 0x1p1022:
		b := s.toBig()
		b.Add(b, big.NewFloat(x))
	default:
		var q []float64 // the partials out, over the partials in
		if s.lo != nil {
			q = s.lo.p[:0]
			for _, y := range s.lo.p {
				if x, y = twoSum(x, y); y != 0 {
					q = append(q, y)
				}
			}
		}
		if s.hi, x = twoSum(x, s.hi); x != 0 {
			if s.lo == nil {
				s.lo = new(sumSpill)
				q = s.lo.buf[:0]
			}
			q = append(q, x)
		}
		if s.lo != nil {
			s.lo.p = q
		}
	}
}

// addTimes adds n > 0 copies of x: x×n is exactly its rounding plus the
// FMA's error — unless it is one copy, NaN, ±Inf or overflows.
func (s *exactSum) addTimes(x float64, n int64) {
	if p := x * float64(n); n > 1 && p-p == 0 {
		s.add(p)
		if e := math.FMA(x, float64(n), -p); e != 0 {
			s.add(e)
		}
		return
	}
	for ; n > 0; n-- {
		s.add(x)
	}
}

// merge adds the sum o to s.
func (s *exactSum) merge(o *exactSum) {
	switch {
	case o.lo != nil && o.lo.big != nil:
		if s.hi-s.hi == 0 {
			s.toBig().Add(s.lo.big, o.lo.big)
		}
		return
	case o.lo != nil:
		for _, p := range o.lo.p {
			s.add(p)
		}
	}
	if o.on {
		s.add(o.hi)
	}
}

// toBig moves the sum into math/big, where it stays: 2200 bits hold any
// sum of up to 2^63 float64s exactly.
func (s *exactSum) toBig() *big.Float {
	if s.lo == nil {
		s.lo = new(sumSpill)
	}
	if s.lo.big == nil {
		b := new(big.Float).SetPrec(2200).SetFloat64(s.hi)
		for _, p := range s.lo.p {
			b.Add(b, big.NewFloat(p))
		}
		s.lo.big, s.lo.p, s.hi, s.on = b, nil, 0, true
	}
	return s.lo.big
}

// round returns the sum rounded once, to nearest even: the partials from the
// top down until one does not fit, then CPython fsum's half-way correction
// from the sign of the next. Every NaN rounds to one NaN.
func (s *exactSum) round() float64 {
	switch {
	case s.hi != s.hi:
		return math.NaN()
	case s.lo == nil:
		return s.hi
	case s.lo.big != nil:
		f, _ := s.lo.big.Float64()
		return f
	}
	hi, p, lo := s.hi, s.lo.p, 0.0
	for len(p) > 0 && lo == 0 {
		hi, lo = twoSum(hi, p[len(p)-1])
		p = p[:len(p)-1]
	}
	if n := len(p); n > 0 && lo != 0 && (lo < 0) == (p[n-1] < 0) && (hi+2*lo)-hi == 2*lo {
		hi += 2 * lo
	}
	return hi
}
