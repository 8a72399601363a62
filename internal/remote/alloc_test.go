//go:build !race

// Allocation guards for the steady-state frame path. The zero-alloc
// claim the mux benchmarks rest on is pinned here as a test, so a
// regression (a forgotten pooled buffer, a frame reader that stops
// recycling) fails fast instead of showing up as a benchmark drift.
// Excluded under -race: the race runtime inserts allocations of its own.
package remote

import (
	"bytes"
	"io"
	"testing"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// loopReader replays one byte sequence forever without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// encodedValuesFrame builds one classic VALUES frame carrying n integers,
// as the server's batch flush emits it.
func encodedValuesFrame(t testing.TB, n int) []byte {
	t.Helper()
	var items [][]byte
	for i := 0; i < n; i++ {
		data, err := wire.Marshal(value.NewInt(int64(i)))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		items = append(items, data)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameValues, wire.EncodeBatch(items)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

// TestFrameReaderZeroAllocSteadyState: after warmup, reading VALUES
// frames through a frameReader allocates nothing — the recycled payload
// buffer is the whole point of the type.
func TestFrameReaderZeroAllocSteadyState(t *testing.T) {
	fr := newFrameReader(&loopReader{data: encodedValuesFrame(t, 64)}, 0)
	read := func() {
		typ, _, err := fr.read()
		if err != nil || typ != frameValues {
			t.Fatalf("read: typ=%d err=%v", typ, err)
		}
	}
	read() // warmup: first read grows the buffer
	if avg := testing.AllocsPerRun(200, read); avg > 0 {
		t.Errorf("frameReader.read allocates %.2f/op steady-state, want 0", avg)
	}
}

// TestWriteFrameZeroAllocSmallPayload: writeFrame stages header+payload
// in a pooled buffer for payloads under frameCopyLimit — zero allocations
// and exactly one Write per frame.
func TestWriteFrameZeroAllocSmallPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 4096)
	write := func() {
		if err := writeFrame(io.Discard, frameValues, payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	write()
	if avg := testing.AllocsPerRun(200, write); avg > 0 {
		t.Errorf("writeFrame allocates %.2f/op steady-state, want 0", avg)
	}
}

// TestUnmarshalBatchIntoReusesScratch: the session read loop decodes
// every VALUES frame into one recycled value slice; the only allocations
// left are the values themselves (integers are interface-boxed), never
// the slice or the batch walk.
func TestUnmarshalBatchIntoReusesScratch(t *testing.T) {
	const n = 64
	fr := newFrameReader(&loopReader{data: encodedValuesFrame(t, n)}, 0)
	var vals []value.V
	step := func() {
		_, payload, err := fr.read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		vals, err = wire.UnmarshalBatchInto(vals[:0], payload, wire.DefaultLimits)
		if err != nil || len(vals) != n {
			t.Fatalf("decode: n=%d err=%v", len(vals), err)
		}
	}
	step() // warmup: grow scratch
	avg := testing.AllocsPerRun(200, step)
	// One boxed value per element is the floor; the guard is that nothing
	// per-frame rides on top of it (slices, intermediate [][]byte, copies).
	if avg > n+2 {
		t.Errorf("VALUES decode allocates %.1f/op for %d values, want <= %d", avg, n, n+2)
	}
}

// TestAppendMuxFrameZeroAllocWithCapacity: the shared writer's batch
// staging reuses its backing array across flushes.
func TestAppendMuxFrameZeroAllocWithCapacity(t *testing.T) {
	payload := bytes.Repeat([]byte{0xcd}, 1024)
	dst := make([]byte, 0, 2*(muxHeaderLen+len(payload)))
	step := func() {
		dst = appendMuxFrame(dst[:0], frameValues, 7, payload)
	}
	step()
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("appendMuxFrame allocates %.2f/op with capacity, want 0", avg)
	}
}

// discardWriter is a streamWriter that drops every frame.
type discardWriter struct{}

func (discardWriter) writeStream(byte, []byte) error { return nil }

// TestValueRunZeroAllocSteadyState: the server's produce-side step —
// encode a value into the stream's scratch, append it to the run, flush
// each full run — allocates nothing once its buffers have grown, for
// integers and short strings alike.
func TestValueRunZeroAllocSteadyState(t *testing.T) {
	const batch = 64
	for _, v := range []value.V{value.NewInt(1 << 40), value.String("a short string")} {
		r := &valueRun{}
		step := func() {
			data, err := r.encode(v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if r.add(data) >= batch {
				if err := r.flush(discardWriter{}); err != nil {
					t.Fatalf("flush: %v", err)
				}
			}
		}
		for i := 0; i < batch; i++ {
			step() // warmup: grow the scratch, the run and the payload
		}
		if avg := testing.AllocsPerRun(10*batch, step); avg > 0 {
			t.Errorf("encode-and-append of %s allocates %.3f/value steady-state, want 0", value.Image(v), avg)
		}
	}
}
