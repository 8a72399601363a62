package wire

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/value"
)

// deepEqual is structural equivalence for decoded values: scalars by value,
// structures recursively (wire transport copies structures, so identity
// equivalence — value.Equiv — is the wrong notion here).
func deepEqual(a, b value.V) bool {
	a, b = value.Deref(a), value.Deref(b)
	switch x := a.(type) {
	case nil, value.Null:
		return value.IsNull(b)
	case value.Integer, value.Real, value.String, *value.Cset:
		return value.TypeOf(a) == value.TypeOf(b) && a.Image() == b.Image()
	case *value.List:
		y, ok := b.(*value.List)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for i := 1; i <= x.Len(); i++ {
			xe, _ := x.At(i)
			ye, _ := y.At(i)
			if !deepEqual(xe, ye) {
				return false
			}
		}
		return true
	case *value.Table:
		y, ok := b.(*value.Table)
		if !ok || x.Len() != y.Len() || !deepEqual(x.Default(), y.Default()) {
			return false
		}
		xk, yk := x.Keys(), y.Keys()
		for i := range xk {
			if !deepEqual(xk[i], yk[i]) || !deepEqual(x.Get(xk[i]), y.Get(yk[i])) {
				return false
			}
		}
		return true
	case *value.Set:
		y, ok := b.(*value.Set)
		if !ok || x.Len() != y.Len() {
			return false
		}
		// Members() breaks cross-type numeric ties (1 vs 1.0) in map
		// order, so match members structurally rather than pairwise.
		xm, ym := x.Members(), y.Members()
		used := make([]bool, len(ym))
	outer:
		for i := range xm {
			for j := range ym {
				if !used[j] && deepEqual(xm[i], ym[j]) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	case *value.Record:
		y, ok := b.(*value.Record)
		if !ok || x.Name != y.Name || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if x.Fields[i] != y.Fields[i] || !deepEqual(x.Values[i], y.Values[i]) {
				return false
			}
		}
		return true
	case *Opaque:
		y, ok := b.(*Opaque)
		return ok && x.Kind == y.Kind && x.Desc == y.Desc
	default:
		return false
	}
}

func roundTrip(t *testing.T, v value.V) value.V {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%s): %v", value.Image(v), err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", value.Image(v), err)
	}
	return got
}

// scalarCases is the scalar round-trip corpus: every scalar tag and its
// edge values.
func scalarCases() []value.V {
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	return []value.V{
		value.NullV,
		value.NewInt(0),
		value.NewInt(42),
		value.NewInt(-7),
		value.NewInt(math.MaxInt64),
		value.NewInt(math.MinInt64),
		value.NewBig(huge),
		value.NewBig(new(big.Int).Neg(huge)),
		value.Real(0),
		value.Real(3.14159),
		value.Real(-2.5e300),
		value.Real(math.Inf(1)),
		value.Real(math.Inf(-1)),
		value.String(""),
		value.String("hello world"),
		value.String("líne\nwïth\tescapes\"and\\slashes"),
		value.NewCset("abc"),
		value.NewCset(""),
		value.CsetLetters,
	}
}

func TestRoundTripScalars(t *testing.T) {
	for _, v := range scalarCases() {
		got := roundTrip(t, v)
		if !deepEqual(v, got) {
			t.Errorf("round trip %s => %s", value.Image(v), value.Image(got))
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, value.Real(math.NaN()))
	r, ok := got.(value.Real)
	if !ok || !math.IsNaN(float64(r)) {
		t.Fatalf("NaN round trip => %s", value.Image(got))
	}
}

// structureCases is the structural round-trip corpus: every container
// tag, empty and nested.
func structureCases() []value.V {
	tbl := value.NewTable(value.NewInt(0))
	tbl.Set(value.String("alpha"), value.NewInt(1))
	tbl.Set(value.NewInt(2), value.NewList(value.String("nested")))
	rec := value.NewRecord("point", []string{"x", "y"}, []value.V{value.NewInt(3), value.Real(4.5)})
	return []value.V{
		value.NewList(),
		value.NewList(value.NewInt(1), value.String("two"), value.NullV),
		value.NewList(value.NewList(value.NewList(value.NewInt(9)))),
		tbl,
		value.NewSet(value.NewInt(1), value.String("one"), value.Real(1)),
		rec,
	}
}

func TestRoundTripStructures(t *testing.T) {
	for _, v := range structureCases() {
		got := roundTrip(t, v)
		if !deepEqual(v, got) {
			t.Errorf("round trip %s => %s", value.Image(v), value.Image(got))
		}
	}
}

func TestStructureCopySemantics(t *testing.T) {
	l := value.NewList(value.NewInt(1))
	got := roundTrip(t, l).(*value.List)
	got.Put(value.NewInt(2))
	if l.Len() != 1 {
		t.Fatal("decoded list aliases the original")
	}
}

func TestVariablesAreDereferenced(t *testing.T) {
	cell := value.NewCell(value.NewInt(11))
	got := roundTrip(t, cell)
	if !deepEqual(got, value.NewInt(11)) {
		t.Fatalf("var encoded as %s, want 11", value.Image(got))
	}
}

func TestProceduresEncodeAsOpaqueHandles(t *testing.T) {
	p := value.NewProc("fib", 1, nil)
	got := roundTrip(t, p)
	o, ok := got.(*Opaque)
	if !ok {
		t.Fatalf("procedure decoded as %T", got)
	}
	if o.Kind != "procedure" || !strings.Contains(o.Desc, "fib") {
		t.Fatalf("opaque handle = %+v", o)
	}
	// Handles survive a second hop unchanged.
	again := roundTrip(t, o)
	if !deepEqual(o, again) {
		t.Fatalf("handle re-encode changed: %s => %s", o.Image(), value.Image(again))
	}
	// Loud failure on remote use: a handle implements neither activation
	// nor invocation, so core.Step / core.InvokeVal raise the ordinary
	// Icon runtime errors when a remote peer tries to use one.
	if _, isStepper := got.(interface {
		Step(value.V) (value.V, bool)
	}); isStepper {
		t.Fatal("opaque handle must not implement activation")
	}
	err := core.Protect(func() { core.Step(o, value.NullV) })
	if err == nil {
		t.Fatal("activating a remote handle did not raise a runtime error")
	}
}

func TestCyclicStructureErrors(t *testing.T) {
	l := value.NewList()
	l.Put(l)
	if _, err := Marshal(l); err == nil {
		t.Fatal("cyclic list marshalled without error")
	}
}

func TestDecodeLimits(t *testing.T) {
	// A forged list count far beyond the payload must error, not allocate.
	data := []byte{tagList, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("forged count decoded without error")
	}
	// A string length beyond MaxBytes must error.
	big := append([]byte{tagString}, 0x81, 0x80, 0x80, 0x80, 0x10)
	if _, err := Unmarshal(big); err == nil {
		t.Fatal("oversized string length decoded without error")
	}
	// Trailing garbage after a complete value must error.
	ok, _ := Marshal(value.NewInt(1))
	if _, err := Unmarshal(append(ok, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// randomValue builds an arbitrary transportable value of bounded depth.
func randomValue(rng *rand.Rand, depth int) value.V {
	max := 9
	if depth <= 0 {
		max = 5 // scalars only
	}
	switch rng.Intn(max) {
	case 0:
		return value.NullV
	case 1:
		return value.NewInt(rng.Int63() - rng.Int63())
	case 2:
		mag := make([]byte, 12+rng.Intn(8))
		rng.Read(mag)
		return value.NewBig(new(big.Int).SetBytes(mag))
	case 3:
		return value.Real(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(200)-100)))
	case 4:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if rng.Intn(2) == 0 {
			return value.String(b)
		}
		return value.NewCset(string(b))
	case 5:
		l := value.NewList()
		for i := rng.Intn(4); i > 0; i-- {
			l.Put(randomValue(rng, depth-1))
		}
		return l
	case 6:
		t := value.NewTable(randomValue(rng, 0))
		for i := rng.Intn(4); i > 0; i-- {
			t.Set(randomValue(rng, 0), randomValue(rng, depth-1))
		}
		return t
	case 7:
		s := value.NewSet()
		for i := rng.Intn(4); i > 0; i-- {
			s.Insert(randomValue(rng, 0))
		}
		return s
	default:
		n := rng.Intn(3)
		fields := make([]string, n)
		vals := make([]value.V, n)
		for i := range fields {
			fields[i] = string(rune('a' + i))
			vals[i] = randomValue(rng, depth-1)
		}
		return value.NewRecord("r", fields, vals)
	}
}

func TestPropRoundTripRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		v := randomValue(rng, 3)
		got := roundTrip(t, v)
		if !deepEqual(v, got) {
			t.Fatalf("iteration %d: %s => %s", i, value.Image(v), value.Image(got))
		}
	}
}
