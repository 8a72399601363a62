package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"junicon/internal/value"
)

// encodingCorpus is every value the round-trip, property and fuzz-seed
// tests encode — the scalar and structure cases, the fuzz seeds, and the
// property test's 500 random values (same seed, same order) — less any
// set whose members tie in the canonical order.
func encodingCorpus() []value.V {
	vs := append(scalarCases(), structureCases()...)
	vs = append(vs, fuzzSeedValues()...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		vs = append(vs, randomValue(rng, 3))
	}
	kept := vs[:0]
	for _, v := range vs {
		if !tiedSet(v) {
			kept = append(kept, v)
		}
	}
	return kept
}

// tiedSet reports a set holding members the canonical order cannot tell
// apart, such as 1 and 1.0: those encode in map iteration order, so two
// encodings of the one set may differ.
func tiedSet(v value.V) bool {
	s, ok := v.(*value.Set)
	if !ok {
		return false
	}
	m := s.Members()
	for i := 1; i < len(m); i++ {
		if !value.Less(m[i-1], m[i]) {
			return true
		}
	}
	return false
}

// corpusDigest is the SHA-256 of the corpus's concatenated encodings. It
// pins the wire bytes themselves: an encoder change that moves it is a
// protocol change every deployed peer would see.
const corpusDigest = "ce126d65c42a8c6a520da718131e32eaa6d10696411d638314ebc21d09c5ee86"

// TestAppendMatchesMarshal: Append writes exactly Marshal's bytes after
// whatever dst already holds, and a reused scratch buffer carries nothing
// over from its previous contents.
func TestAppendMatchesMarshal(t *testing.T) {
	h := sha256.New()
	const prefix = "prefix"
	scratch := []byte(prefix)
	for _, v := range encodingCorpus() {
		want, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", value.Image(v), err)
		}
		h.Write(want)
		scratch, err = Append(scratch[:len(prefix)], v)
		if err != nil {
			t.Fatalf("Append(%s): %v", value.Image(v), err)
		}
		if string(scratch[:len(prefix)]) != prefix || !bytes.Equal(scratch[len(prefix):], want) {
			t.Fatalf("Append(%s) = % x, want prefix + % x", value.Image(v), scratch, want)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
		t.Fatalf("corpus encodes to digest %s, want %s", got, corpusDigest)
	}
}

// TestAppendRefusesLikeMarshal: the errors are the shared encoder's too —
// a cycle still surfaces as ErrTooDeep.
func TestAppendRefusesLikeMarshal(t *testing.T) {
	l := value.NewList()
	l.Put(l)
	if _, err := Append(nil, l); err != ErrTooDeep {
		t.Fatalf("Append of a cyclic list: err = %v, want ErrTooDeep", err)
	}
}

// TestAppendZeroAllocWithCapacity: encoding an integer or a short string
// into a scratch buffer that already has room allocates nothing — the
// property the server's per-value produce step is built on.
func TestAppendZeroAllocWithCapacity(t *testing.T) {
	for _, v := range []value.V{value.NewInt(-1 << 40), value.String("a short string")} {
		scratch := make([]byte, 0, 64)
		avg := testing.AllocsPerRun(1000, func() {
			var err error
			if scratch, err = Append(scratch[:0], v); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Errorf("Append(%s) allocates %.2f/op with capacity, want 0", value.Image(v), avg)
		}
	}
}
