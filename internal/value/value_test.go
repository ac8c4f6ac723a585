package value

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(42).AsInt() != 42 || Int(42).K != KindInt {
		t.Fatal("Int")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Fatal("Float")
	}
	if String("x").AsString() != "x" {
		t.Fatal("String")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("Bool")
	}
	ts := time.Date(2015, 4, 13, 9, 0, 0, 0, time.UTC) // ICDE'15 in Seoul
	if !Time(ts).AsTime().Equal(ts) {
		t.Fatal("Time round trip")
	}
	if !Null.IsNull() || Null.AsString() != "NULL" {
		t.Fatal("Null")
	}
}

func TestCoercions(t *testing.T) {
	if Float(3.9).AsInt() != 3 {
		t.Fatal("float->int truncates")
	}
	if String("17").AsInt() != 17 {
		t.Fatal("string->int")
	}
	if Int(0).AsBool() || !Int(5).AsBool() {
		t.Fatal("int->bool")
	}
	if Coerce(String("2015-04-13"), KindTime).IsNull() {
		t.Fatal("date parse")
	}
	if !Coerce(String("not a date"), KindTime).IsNull() {
		t.Fatal("bad date must be NULL")
	}
	if Coerce(Int(3), KindString).S != "3" {
		t.Fatal("int->string")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{Int(1), Int(2), -1},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{String("a"), String("b"), -1},
		{String("10"), Int(9), 1}, // numeric coercion, not lexicographic
		{Bool(true), Bool(false), 1},
		// NaN equals NaN and sorts above every other number.
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Float(math.Inf(1)), Float(math.NaN()), -1},
		{Int(3), Float(math.NaN()), -1},
		{Null, Float(math.NaN()), -1},
		{String("NaN"), Float(1), 1},
		{Float(math.NaN()), String("5"), 1},
		{Float(math.NaN()), String("NaN"), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFloatsIsATotalOrder: with NaN in it, Compare over floats is
// antisymmetric and transitive — what sorting, MIN/MAX and zone maps need.
func TestCompareFloatsIsATotalOrder(t *testing.T) {
	fs := []float64{math.NaN(), math.Inf(-1), -1e300, -1, math.Copysign(0, -1), 0, 5e-324, 1, 1e300, math.Inf(1), math.NaN()}
	for _, a := range fs {
		for _, b := range fs {
			ab := Compare(Float(a), Float(b))
			if ab != -Compare(Float(b), Float(a)) {
				t.Fatalf("Compare(%v, %v) = %d is not antisymmetric", a, b, ab)
			}
			for _, c := range fs {
				if bc := Compare(Float(b), Float(c)); ab <= 0 && bc <= 0 && Compare(Float(a), Float(c)) > 0 {
					t.Fatalf("%v <= %v <= %v but Compare(%v, %v) > 0", a, b, c, a, c)
				}
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	if Add(Int(2), Int(3)).I != 5 {
		t.Fatal("int add")
	}
	if Add(Int(2), Float(0.5)).F != 2.5 {
		t.Fatal("promoted add")
	}
	if Add(String("a"), String("b")).S != "ab" {
		t.Fatal("concat")
	}
	if !Add(Null, Int(1)).IsNull() {
		t.Fatal("null propagation")
	}
	if Sub(Int(5), Int(3)).I != 2 || Mul(Int(4), Int(3)).I != 12 {
		t.Fatal("sub/mul")
	}
	if Div(Int(7), Int(2)).F != 3.5 {
		t.Fatal("non-even int div promotes")
	}
	if Div(Int(8), Int(2)).I != 4 {
		t.Fatal("even int div stays int")
	}
	if !Div(Int(1), Int(0)).IsNull() {
		t.Fatal("div by zero")
	}
	if Mod(Int(7), Int(3)).I != 1 || !Mod(Int(7), Int(0)).IsNull() {
		t.Fatal("mod")
	}
	if Neg(Int(2)).I != -2 || Neg(Float(1.5)).F != -1.5 {
		t.Fatal("neg")
	}
}

func TestHashConsistency(t *testing.T) {
	// Values that compare equal across numeric kinds must hash equal
	// (hash join correctness).
	if Int(7).Hash() != Float(7).Hash() {
		t.Fatal("int/float hash mismatch")
	}
	if Int(7).Hash() == Int(8).Hash() {
		t.Fatal("suspicious collision")
	}
	if String("abc").Hash() == String("abd").Hash() {
		t.Fatal("string collision")
	}
	if math.IsNaN(0) { // keep math import honest
		t.Fatal()
	}
}

func TestCompareIsAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b string) bool {
		return Compare(String(a), String(b)) == -Compare(String(b), String(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowKeyInjective(t *testing.T) {
	a := Row{Int(1), String("x")}
	b := Row{Int(1), String("x")}
	c := Row{String("1"), String("x")}
	if a.Key() != b.Key() {
		t.Fatal("equal rows must share keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("kind must participate in key")
	}
	if k := (Row{String("a\x1fb")}).Key(); k == (Row{String("a"), String("b")}).Key() {
		t.Fatal("separator collision")
	}
}

// TestAppendKeyMatchesKey holds the two key renderings together: the
// append form, after any prefix already in the buffer, adds exactly the
// bytes Key has always produced (kind byte + AsString, 0x1f between cells).
func TestAppendKeyMatchesKey(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, us int64, prefix []byte) bool {
		row := Row{Null, Int(i), Float(fl), String(s), Bool(b), TimeMicros(us % 4e15), {K: Kind(99)}}
		var want strings.Builder
		for c, v := range row {
			if c > 0 {
				want.WriteByte(0x1f)
			}
			want.WriteByte(byte(v.K))
			want.WriteString(v.AsString())
		}
		got := row.AppendKey(append([]byte(nil), prefix...))
		return row.Key() == want.String() && string(got) == string(prefix)+want.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, fl := range []float64{1e21, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := string(Float(fl).AppendString(nil)), strconv.FormatFloat(fl, 'g', -1, 64); got != want {
			t.Fatalf("float %v renders %q, want %q", fl, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, k := range map[string]Kind{"int": KindInt, "VARCHAR": KindString, "Double": KindFloat, "bool": KindBool, "TIMESTAMP": KindTime} {
		got, err := ParseKind(s)
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q)=%v,%v", s, got, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String("a")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].I != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestKindStringsAndNumeric(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindTime: "TIMESTAMP",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
	if !Int(1).Numeric() || !Float(1).Numeric() || !Bool(true).Numeric() || !TimeMicros(1).Numeric() {
		t.Fatal("numeric kinds")
	}
	if String("x").Numeric() || Null.Numeric() {
		t.Fatal("non-numeric kinds")
	}
}

func TestAsStringAndAsBoolAllKinds(t *testing.T) {
	if Float(2.5).AsString() != "2.5" || Bool(true).AsString() != "TRUE" || Bool(false).AsString() != "FALSE" {
		t.Fatal("renders")
	}
	ts := time.Date(2015, 4, 13, 9, 30, 0, 0, time.UTC)
	if Time(ts).AsString() != "2015-04-13 09:30:00.000000" {
		t.Fatalf("time render: %q", Time(ts).AsString())
	}
	if (Value{K: Kind(99)}).AsString() == "" {
		t.Fatal("unknown kind render")
	}
	if !Float(0.5).AsBool() || Float(0).AsBool() {
		t.Fatal("float bool")
	}
	if !String("x").AsBool() || String("").AsBool() {
		t.Fatal("string bool")
	}
	if Null.AsBool() {
		t.Fatal("null bool")
	}
	if String("3.5").AsFloat() != 3.5 || Null.AsFloat() != 0 || Null.AsInt() != 0 {
		t.Fatal("coercions")
	}
}

func TestEqualAndSubMulNullPropagation(t *testing.T) {
	if !Equal(Int(3), Float(3)) || Equal(Int(3), Int(4)) {
		t.Fatal("Equal")
	}
	if !Sub(Null, Int(1)).IsNull() || !Mul(Int(1), Null).IsNull() {
		t.Fatal("null propagation")
	}
	if Sub(Float(1.5), Int(1)).F != 0.5 || Mul(Float(2), Float(3)).F != 6 {
		t.Fatal("float paths")
	}
	if !Neg(String("x")).IsNull() {
		t.Fatal("neg of string")
	}
}

func TestCoerceAllTargets(t *testing.T) {
	if Coerce(Int(1), KindBool).AsBool() != true {
		t.Fatal("int->bool")
	}
	if Coerce(Float(3.7), KindInt).I != 3 {
		t.Fatal("float->int")
	}
	if Coerce(Bool(true), KindFloat).F != 1 {
		t.Fatal("bool->float")
	}
	if Coerce(Int(5), KindTime).K != KindTime {
		t.Fatal("int->time")
	}
	if Coerce(String("2015-04-13 10:00:00"), KindTime).IsNull() {
		t.Fatal("datetime parse")
	}
	if !Coerce(Int(1), Kind(99)).IsNull() {
		t.Fatal("unknown target")
	}
	v := Int(7)
	if Coerce(v, KindInt) != v || !Coerce(Null, KindFloat).IsNull() {
		t.Fatal("identity/null")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Null, Int(0), Int(math.MinInt64), Int(math.MaxInt64), Bool(true), Bool(false), TimeMicros(-1),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000123)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Copysign(0, -1)), String(""), String("\xff\xfe"), String(strings.Repeat("x", 300)),
	}
	var buf []byte
	for _, v := range vals {
		n := len(buf)
		if buf = AppendBinary(buf, v); len(buf)-n != BinarySize(v) {
			t.Fatalf("%#v: %d bytes, BinarySize says %d", v, len(buf)-n, BinarySize(v))
		}
	}
	for i, want := range vals {
		got, n, err := ReadBinary(buf)
		if err != nil {
			t.Fatalf("value %d (%v): %v", i, want, err)
		}
		if got.K != want.K || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("value %d: got %#v, want %#v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
	check := func(k int64, f float64, s string) bool {
		for _, v := range []Value{Int(k), Float(f), String(s)} {
			got, n, err := ReadBinary(AppendBinary(nil, v))
			if err != nil || n != len(AppendBinary(nil, v)) || n != BinarySize(v) || got.K != v.K || got.I != v.I || got.S != v.S || math.Float64bits(got.F) != math.Float64bits(v.F) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsBadInput(t *testing.T) {
	if _, _, err := ReadBinary([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("unknown kind byte: err=%v", err)
	}
	// A string that claims more bytes than there are, and every proper
	// prefix of a good encoding, is cut short — never a panic, never a
	// buffer sized by the claim.
	if _, _, err := ReadBinary([]byte{byte(KindString), 0xff, 0xff, 0xff, 0x7f, 'a'}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("over-long string: err=%v", err)
	}
	for _, v := range []Value{Int(7), Float(1.5), String("hello")} {
		enc := AppendBinary(nil, v)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := ReadBinary(enc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%v cut at %d: err=%v", v, cut, err)
			}
		}
	}
	if _, _, err := ReadBinary(append([]byte{byte(KindString)}, bytes.Repeat([]byte{0xff}, 11)...)); err == nil {
		t.Fatal("overflowing length varint accepted")
	}
}

// TestParse: text reads as exactly the kind asked for, or is an error.
// Coerce reads text the same way: it once turned any non-empty text into
// TRUE, so 'false' was stored as t.
func TestParse(t *testing.T) {
	day := time.Date(2015, 4, 13, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		s    string
		k    Kind
		want Value // NULL: the text does not read as k
	}{
		{"t", KindBool, Bool(true)},
		{"TRUE", KindBool, Bool(true)},
		{"True", KindBool, Bool(true)},
		{"f", KindBool, Bool(false)},
		{"false", KindBool, Bool(false)},
		{"FaLsE", KindBool, Bool(false)},
		{"yes", KindBool, Null},
		{"1", KindBool, Null},
		{"", KindBool, Null},
		{"02134", KindString, String("02134")},
		{"1e3", KindString, String("1e3")},
		{"007", KindNull, String("007")},
		{"", KindString, String("")},
		{"007", KindInt, Int(7)},
		{"-12", KindInt, Int(-12)},
		{"+7", KindInt, Int(7)},
		{"1e3", KindInt, Null},
		{"1.5", KindInt, Null},
		{"abc", KindInt, Null},
		{" 7", KindInt, Null},
		{"9223372036854775808", KindInt, Null},
		{"1e3", KindFloat, Float(1000)},
		{"-Inf", KindFloat, Float(math.Inf(-1))},
		{"0.25", KindFloat, Float(0.25)},
		{"abc", KindFloat, Null},
		{"1e999", KindFloat, Null},
		{"2015-04-13", KindTime, Time(day)},
		{"2015-04-13 09:30:00", KindTime, Time(day.Add(9*time.Hour + 30*time.Minute))},
		{"2015-04-13 09:30:00.000123", KindTime, Time(day.Add(9*time.Hour + 30*time.Minute + 123*time.Microsecond))},
		{"yesterday", KindTime, Null},
		{"7", Kind(99), Null},
	} {
		got, err := Parse(c.s, c.k)
		if c.want.IsNull() {
			if err == nil {
				t.Errorf("Parse(%q, %v) = %v, want an error", c.s, c.k, got)
			}
		} else if err != nil || got != c.want {
			t.Errorf("Parse(%q, %v) = %v, %v; want %v", c.s, c.k, got, err, c.want)
		}
		// Coerce reads text through Parse: what Parse refuses is NULL.
		if c.k != KindNull && c.k != KindString {
			if got := Coerce(String(c.s), c.k); got != c.want {
				t.Errorf("Coerce(%q, %v) = %v, want %v", c.s, c.k, got, c.want)
			}
		}
	}
	if _, err := Parse("abc", KindInt); !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), `"abc"`) {
		t.Errorf("error %v is not ErrSyntax quoting the text", err)
	}
	// Parse keeps nothing of its text: a number costs no allocation.
	buf := []byte("123456")
	if n := testing.AllocsPerRun(100, func() {
		if v, err := Parse(string(buf), KindInt); err != nil || v.I != 123456 {
			t.Fatal(v, err)
		}
	}); n != 0 {
		t.Errorf("parsing an integer costs %.0f allocations, want 0", n)
	}
}

// TestArithKind: each arithmetic function yields the kind ArithKind names
// for its operands' kinds, over operands of every kind — including text,
// which reads as a number or concatenates — wherever ArithKind names one.
func TestArithKind(t *testing.T) {
	samples := []Value{Int(6), Int(-4), Int(0), Float(2.5), Float(0), String("3"), String("x"),
		Bool(true), Bool(false), TimeMicros(7)}
	ops := map[string]func(a, b Value) Value{"+": Add, "-": Sub, "*": Mul, "/": Div, "%": Mod}
	for op, fn := range ops {
		for _, a := range samples {
			for _, b := range samples {
				k, got := ArithKind(op, a.K, b.K), fn(a, b)
				if k != KindNull && !got.IsNull() && got.K != k {
					t.Errorf("%v %s %v = %v, of kind %v; ArithKind says %v", a, op, b, got, got.K, k)
				}
			}
			if ArithKind(op, a.K, KindNull) != KindNull && op != "%" {
				t.Errorf("%v %s <unknown>: a kind named for an operand of unknown kind", a, op)
			}
		}
	}
	if ArithKind("/", KindInt, KindInt) != KindNull || Div(Int(6), Int(4)).K != KindFloat || Div(Int(8), Int(4)).K != KindInt {
		t.Error("an integer quotient's kind is the values', not the kinds'")
	}
}

// FuzzParseValue: Parse never panics on any text, a value it reads renders
// (AppendString) and reads back bit for bit, and so does a value of every
// kind built from the fuzzer's bits — a float's NaN payload aside, which
// text does not carry, and a timestamp within the four-digit years its
// text spells.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"", "0", "-9223372036854775808", "1e3", "NaN", "-Inf", "0x1p-2", "t", "FALSE",
		"2015-04-13", "2015-04-13 09:30:00.5", "9999-12-31 23:59:59.999999", "\xff"} {
		f.Add(s, uint8(0), uint64(0))
	}
	f.Add("007", uint8(KindInt), uint64(math.Float64bits(-0.0)))
	minT := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	maxT := time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC).UnixMicro()
	same := func(a, b Value) bool {
		if a.K == KindFloat && b.K == KindFloat && math.IsNaN(a.F) {
			return math.IsNaN(b.F)
		}
		return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	f.Fuzz(func(t *testing.T, s string, k uint8, bits uint64) {
		vals := []Value{Int(int64(bits)), Float(math.Float64frombits(bits)), Bool(bits&1 == 1),
			TimeMicros(minT + int64(bits%uint64(maxT-minT+1))), String(s)}
		if v, err := Parse(s, Kind(k%6)); err == nil {
			vals = append(vals, v)
		}
		for _, v := range vals {
			got, err := Parse(string(v.AppendString(nil)), v.K)
			if err != nil || !same(got, v) {
				t.Fatalf("%#v renders as %q and reads back as %#v, %v", v, v.AppendString(nil), got, err)
			}
		}
	})
}
