package sqlexec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// bigSumOf is the reference: the sum of xs[i] × n[i] (n nil: once each) in
// math/big, exactly, rounded to the nearest float64, ties to even.
func bigSumOf(xs []float64, n []int64) float64 {
	b := new(big.Float).SetPrec(2200)
	for i, x := range xs {
		t := big.NewFloat(x)
		if n != nil {
			t.SetPrec(2200).Mul(t, new(big.Float).SetInt64(n[i]))
		}
		b.Add(b, t)
	}
	f, _ := b.Float64()
	return f
}

// sumSplit sums xs (each n[i] times; n nil: once) into two accumulators, the
// first cut of them into one and the rest into the other, merges the second
// into the first and rounds.
func sumSplit(xs []float64, n []int64, cut int) float64 {
	var a, b exactSum
	for i, x := range xs {
		s := &a
		if i >= cut {
			s = &b
		}
		if n == nil {
			s.add(x)
		} else {
			s.addTimes(x, n[i])
		}
	}
	a.merge(&b)
	return a.round()
}

// TestExactSumMatchesBig: over 10 000 random sets with exponents spread over
// ±100 (every tenth set ±1000, which keeps dozens of partials), cancelling
// pairs and runs, the accumulator is the math/big sum rounded once, bit for
// bit, in four shuffles of each set, each split at a random point into two
// accumulators and merged.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for set := 0; set < 10000; set++ {
		var xs []float64
		var ns []int64
		spread := 100
		if set%10 == 0 {
			spread = 1000
		}
		for k := 1 + rng.Intn(40); k > 0; k-- {
			x := math.Ldexp(rng.Float64()*2-1, rng.Intn(2*spread+1)-spread)
			if len(xs) > 0 && rng.Intn(4) == 0 {
				x = -xs[rng.Intn(len(xs))] // cancels an earlier addend
			}
			n := int64(1)
			if rng.Intn(5) == 0 {
				n += rng.Int63n(1000) // a run, added in one step
			}
			xs, ns = append(xs, x), append(ns, n)
		}
		want := bigSumOf(xs, ns)
		for shuffle := 0; shuffle < 4; shuffle++ {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i]; ns[i], ns[j] = ns[j], ns[i] })
			cut := rng.Intn(len(xs) + 1)
			if got := sumSplit(xs, ns, cut); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("set %d, shuffle %d, cut %d: %v sums to %g (%016x), want %g (%016x)",
					set, shuffle, cut, xs, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// permute calls fn with every ordering of xs.
func permute(xs []float64, k int, fn func([]float64)) {
	if k == len(xs) {
		fn(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, fn)
		xs[k], xs[i] = xs[i], xs[k]
	}
}

// TestExactSumEdges: NaN, infinities, signed zeros, overflow, underflow
// and the half-way cases, in every order and at every split.
func TestExactSumEdges(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	tiny, max := math.SmallestNonzeroFloat64, math.MaxFloat64
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{nan}, nan},
		{[]float64{1, nan, 2}, nan},
		{[]float64{inf, 1}, inf},
		{[]float64{-inf, max, max}, -inf},
		{[]float64{inf, -inf}, nan},
		{[]float64{inf, inf, 3}, inf},
		{[]float64{nan, inf, -1}, nan},
		{[]float64{-inf, nan}, nan},
		{[]float64{math.Float64frombits(0xfff8000000000123), 1}, nan},
		{[]float64{negZero}, negZero},
		{[]float64{negZero, negZero, negZero}, negZero},
		{[]float64{0, negZero}, 0},
		{[]float64{1, -1}, 0},
		{[]float64{-1, 1, negZero}, 0},
		{[]float64{tiny, -tiny, negZero}, 0},
		{[]float64{tiny, tiny, tiny}, 3 * tiny},
		{[]float64{max, max}, inf},
		{[]float64{-max, -max, 1}, -inf},
		{[]float64{max, max, -max}, max},
		{[]float64{1e308, 1e308, -1e308, -1e308, 5}, 5},
		{[]float64{max, 0x1p970, -0x1p918}, max},
		{[]float64{1, 1e-16, 1e-16}, 1.0000000000000002},
		{[]float64{1, 0x1p-53, 0x1p-106}, 1 + 0x1p-52},
		{[]float64{1, 0x1p-53, -0x1p-106}, 1},
		{[]float64{1 + 0x1p-52, 0x1p-53, -0x1p-106}, 1 + 0x1p-52},
		{[]float64{1e16, 1, -1e16, 0.1, 3.3e-5, 7e15}, 7000000000000001},
	} {
		permute(c.xs, 0, func(xs []float64) {
			for cut := 0; cut <= len(xs); cut++ {
				got := sumSplit(xs, nil, cut)
				if math.IsNaN(c.want) && math.Float64bits(got) == math.Float64bits(nan) {
					continue
				}
				if math.Float64bits(got) != math.Float64bits(c.want) {
					t.Errorf("%v cut %d: got %g (%016x), want %g (%016x)", xs, cut, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
				}
			}
		})
	}
}

// TestAggAccSize: an accumulator is one per aggregate per group, so its
// size is a budget.
func TestAggAccSize(t *testing.T) {
	if n := unsafe.Sizeof(aggAcc{}); n > 128 {
		t.Fatalf("aggAcc is %d bytes, budget 128", n)
	}
}

// FuzzExactSum: a sequence of float64s (eight bytes each, any bit pattern)
// summed in order, reversed, split at every point and merged, and with each
// addend doubled in one step, is the math/big sum rounded once — NaN for any
// NaN or for +Inf with −Inf, an infinity for any other infinity, −0.0 for
// only −0.0s.
func FuzzExactSum(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(1e16, 1, -1e16, 0.1))
	f.Add(seed(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64))
	f.Add(seed(math.Inf(1), 1, math.Inf(-1)))
	f.Add(seed(math.Copysign(0, -1), 5e-324, -5e-324))
	f.Add(seed(1, 0x1p-53, 0x1p-106))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for ; len(data) >= 8 && len(xs) < 64; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		want := func(xs []float64) float64 {
			var pos, neg, nan, allNegZero = false, false, false, len(xs) > 0
			for _, x := range xs {
				pos, neg, nan = pos || math.IsInf(x, 1), neg || math.IsInf(x, -1), nan || math.IsNaN(x)
				allNegZero = allNegZero && math.Float64bits(x) == 1<<63
			}
			switch {
			case nan || pos && neg:
				return math.NaN()
			case pos:
				return math.Inf(1)
			case neg:
				return math.Inf(-1)
			case allNegZero:
				return math.Copysign(0, -1)
			}
			return bigSumOf(xs, nil)
		}
		check := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s of %v: got %g (%016x), want %g (%016x)", what, xs, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		w := want(xs)
		check("in order", sumSplit(xs, nil, len(xs)), w)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		check("reversed", sumSplit(rev, nil, len(rev)), w)
		for cut := 0; cut < len(xs); cut++ {
			check("split", sumSplit(xs, nil, cut), w)
		}
		twice := make([]int64, len(xs))
		for i := range twice {
			twice[i] = 2
		}
		check("doubled", sumSplit(xs, twice, len(xs)), want(append(xs, xs...)))
	})
}

// BenchmarkExactSum: the accumulator alone against a plain float add, per
// addend, on data whose every addition is exact (multiples of 0.25, like the
// end-to-end benchmark's amounts), on prices in cents (inexact: a hundredth
// has no float64, and the sum keeps a partial or two) and on magnitudes
// spread over 2^±40 (several partials).
func BenchmarkExactSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	exact, cents, wide := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096) // i&4095 indexes them
	for i := range exact {
		exact[i] = float64(rng.Intn(40000)) / 4
		cents[i] = float64(rng.Intn(1_000_000)) / 100
		wide[i] = math.Ldexp(rng.Float64(), rng.Intn(80)-40)
	}
	for _, data := range []struct {
		name string
		xs   []float64
	}{{"exact", exact}, {"cents", cents}, {"wide", wide}} {
		b.Run("plain/"+data.name, func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += data.xs[i&4095]
			}
			sumSink = s
		})
		b.Run("exactSum/"+data.name, func(b *testing.B) {
			b.ReportAllocs()
			var s exactSum
			for i := 0; i < b.N; i++ {
				s.add(data.xs[i&4095])
			}
			sumSink = s.round()
		})
	}
}

var sumSink float64
