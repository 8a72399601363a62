package wire

import (
	"testing"

	"junicon/internal/value"
)

// FuzzUnmarshal pins that no byte sequence makes the decoder panic or
// allocate unboundedly, and that every successfully decoded value survives
// a re-encode round trip — the invariant the remote protocol's frame
// handling relies on when facing a corrupt or hostile peer.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range fuzzSeedValues() {
		data, err := Marshal(v)
		if err != nil {
			f.Fatalf("seed marshal: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{tagList, 0xff, 0xff, 0x7f})
	f.Add([]byte{tagBig, 0x02, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Keep fuzz inputs small enough that decoding stays fast; the
		// limits themselves are exercised by the forged-length seeds.
		lim := Limits{MaxBytes: 1 << 16, MaxElems: 1 << 12, MaxDepth: 32}
		v, err := UnmarshalLimits(data, lim)
		if err != nil {
			return
		}
		re, err := MarshalLimits(v, lim)
		if err != nil {
			t.Fatalf("re-marshal of decoded value failed: %v", err)
		}
		v2, err := UnmarshalLimits(re, lim)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !deepEqual(v, v2) {
			t.Fatalf("round trip not stable: %s vs %s", value.Image(v), value.Image(v2))
		}
	})
}

// fuzzSeedValues are the values whose encodings seed FuzzUnmarshal.
func fuzzSeedValues() []value.V {
	seed := []value.V{
		value.NullV,
		value.NewInt(-123456),
		value.Real(2.718),
		value.String("seed string"),
		value.NewCset("abc"),
		value.NewList(value.NewInt(1), value.String("x"), value.NewList()),
		value.NewSet(value.NewInt(1), value.NewInt(2)),
		value.NewRecord("p", []string{"x"}, []value.V{value.Real(1)}),
		&Opaque{Kind: "procedure", Desc: "procedure main"},
	}
	tbl := value.NewTable(value.NullV)
	tbl.Set(value.String("k"), value.NewInt(9))
	seed = append(seed, tbl)
	return seed
}
