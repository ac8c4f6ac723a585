package sqlexec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

// stateSpecs is every accumulator shape a fold state carries.
var stateSpecs = []aggSpec{
	{Fn: "COUNT", Star: true},
	{Fn: "COUNT"},
	{Fn: "SUM"},
	{Fn: "AVG"},
	{Fn: "MIN"},
	{Fn: "MAX"},
	{Fn: "COUNT", Distinct: true},
	{Fn: "SUM", Distinct: true},
	{Fn: "AVG", Distinct: true},
}

// stateInputs are aggregations of stateSpecs over rows of keys columns
// followed by one argument: a global one, a code key, two rendered keys.
func stateInputs() []*aggInput {
	var ins []*aggInput
	for keys := 0; keys <= 2; keys++ {
		in := &aggInput{aggShape: aggShape{groupCol: -1, keyCols: make([]int, keys)}, specs: stateSpecs}
		for c := range in.keyCols {
			in.keyCols[c] = c
		}
		for range stateSpecs {
			in.argCols = append(in.argCols, keys)
		}
		if keys == 1 {
			in.groupCol, in.groupKind = 0, value.KindString
		}
		ins = append(ins, in)
	}
	return ins
}

// stateRows turns bytes into rows of keys keys and one argument: floats of
// every magnitude — past 2^1022, where a sum goes on in math/big, NaN, ±Inf
// — integers and NULLs.
func stateRows(data []byte, keys int) []value.Row {
	var rows []value.Row
	for ; len(data) >= 9; data = data[9:] {
		row := make(value.Row, keys+1)
		for k := range keys {
			row[k] = value.String(string('A' + rune(data[k]%4)))
		}
		if keys > 0 && data[0]%7 == 0 {
			row[0] = value.Null
		}
		bits := binary.LittleEndian.Uint64(data[1:])
		switch data[0] % 5 {
		case 0:
			row[keys] = value.Int(int64(bits) >> 8)
		case 1:
			row[keys] = value.Null
		default:
			row[keys] = value.Float(math.Float64frombits(bits))
		}
		rows = append(rows, row)
	}
	return rows
}

func foldOf(in *aggInput, rows []value.Row) *aggFold {
	ctx := new(execCtx)
	f := ctx.fold(in, ctx.interner(), 0)
	for i, row := range rows {
		f.foldRow(nil, 0, row, int64(i))
	}
	return f
}

// absorbed is the fold an empty one becomes by absorbing states.
func absorbed(in *aggInput, states ...[]byte) (*aggFold, error) {
	var replies []Reply
	for _, st := range states {
		replies = append(replies, Reply{State: st})
	}
	ctx := new(execCtx)
	f := ctx.fold(in, ctx.interner(), 0)
	return f, f.absorbStates(replies)
}

// checkRoundTrip folds rows, encodes the fold and absorbs the state into
// an empty fold: the same groups, in the same order, answering the same
// values — kinds and bits.
func checkRoundTrip(t *testing.T, in *aggInput, rows []value.Row) {
	t.Helper()
	f, err := absorbed(in, appendFoldState(nil, foldOf(in, rows)))
	if err != nil {
		t.Fatalf("%d keys: an encoded state does not decode: %v", len(in.keyCols), err)
	}
	got, want := f.rows(), foldOf(in, rows).rows()
	if len(got) != len(want) {
		t.Fatalf("%d keys: %d groups decoded, %d encoded", len(in.keyCols), len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%d keys, group %d: %v decoded, %v encoded", len(in.keyCols), i, got[i], want[i])
		}
	}
}

// TestFoldStateRoundTrip: a fold's state decodes to its groups — sums whose
// partials spilled past float64 into math/big, NaN and DISTINCT sets
// included — and absorbing the states of the folds of any split of the
// input answers as the fold of all of it does, bit for bit.
func TestFoldStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spilled := false
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 9*rng.Intn(40))
		rng.Read(data)
		for i := 0; i+9 <= len(data); i += 9 {
			if rng.Intn(4) == 0 { // a float of mixed magnitude: 1e15 next to 0.1, 1e308 next to 1
				data[i] = 2
				binary.LittleEndian.PutUint64(data[i+1:], math.Float64bits([]float64{1e15, 0.1, -1e15, 1e308, -1e308, 1, 3.3e-300}[rng.Intn(7)]))
			}
		}
		for _, in := range stateInputs() {
			rows := stateRows(data, len(in.keyCols))
			checkRoundTrip(t, in, rows)
			for _, g := range foldOf(in, rows).groups() {
				spilled = spilled || g.accs[2].sumF.lo != nil && g.accs[2].sumF.lo.big != nil
			}

			// Split the rows over three "nodes" and absorb their states.
			var states [][]byte
			for part := 0; part < 3; part++ {
				var mine []value.Row
				for i, row := range rows {
					if i%3 == part {
						mine = append(mine, row)
					}
				}
				states = append(states, appendFoldState(nil, foldOf(in, mine)))
			}
			f, err := absorbed(in, states...)
			if err != nil {
				t.Fatal(err)
			}
			got, want := f.rows(), foldOf(in, rows).rows()
			slices.SortFunc(got, func(a, b value.Row) int { return strings.Compare(a.Key(), b.Key()) })
			slices.SortFunc(want, func(a, b value.Row) int { return strings.Compare(a.Key(), b.Key()) })
			for i := range want {
				if i >= len(got) || got[i].Key() != want[i].Key() {
					t.Fatalf("%d keys: absorbed states answer\n %v\nthe whole fold\n %v", len(in.keyCols), got, want)
				}
			}
		}
	}
	if !spilled {
		t.Fatal("no sum spilled into math/big: the test does not reach that encoding")
	}
}

// TestHostileFoldStates: a state cut short or running on, with a count
// past its bytes, or a big sum that does not decode or lies beyond any sum
// of float64s is an error.
func TestHostileFoldStates(t *testing.T) {
	in := &aggInput{aggShape: aggShape{groupCol: -1, argCols: []int{0}}, specs: []aggSpec{{Fn: "SUM"}}}
	good := appendFoldState(nil, foldOf(in, []value.Row{{value.Float(1e15)}, {value.Float(0.1)}}))
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	one := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
	far, _ := new(big.Float).SetMantExp(big.NewFloat(1), 5000).GobEncode()
	// A state of one group of SUM: its count, its integer sum, then its
	// float sum.
	group := []byte{1, 1, 0}
	for name, b := range map[string][]byte{
		"truncated":     good[:len(good)-1],
		"trailing":      append(slices.Clone(good), 0),
		"group count":   huge,
		"partial count": slices.Concat(group, []byte{4}, one, one),
		"big length":    slices.Concat(group, []byte{1}, huge),
		"big garbage":   slices.Concat(group, []byte{1, 3, 1, 2, 3}),
		"big exponent":  slices.Concat(group, []byte{1, byte(len(far))}, far),
	} {
		if _, err := absorbed(in, b); err == nil {
			t.Errorf("%s: a hostile state decoded", name)
		}
	}
	if _, err := absorbed(in, good); err != nil {
		t.Fatalf("the good state: %v", err)
	}
}

// FuzzPartialState: arbitrary bytes decode to an error or to groups the
// coordinator can absorb and answer from — never a panic — and the fold of
// rows made of the same bytes decodes to its own groups.
func FuzzPartialState(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		data := make([]byte, 9*(1+rng.Intn(12)))
		rng.Read(data)
		for _, in := range stateInputs() {
			f.Add(appendFoldState(nil, foldOf(in, stateRows(data, len(in.keyCols)))))
		}
	}
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range stateInputs() {
			if fold, err := absorbed(in, data, data); err == nil {
				fold.rows()
			}
			checkRoundTrip(t, in, stateRows(data, len(in.keyCols)))
		}
	})
}
