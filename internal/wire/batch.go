package wire

import (
	"encoding/binary"
	"fmt"

	"junicon/internal/value"
)

// Batch framing: the remote protocol's VALUES frame carries a run of
// wire-encoded values in one payload, amortizing the per-frame header and
// syscall the same way a batched pipe amortizes the per-value queue
// handshake. The layout is a uvarint element count followed by each
// element as a uvarint length prefix and its Marshal bytes. Decoding
// enforces the same Limits discipline as single-value decoding: the count
// is bounded by MaxElems and each element by MaxBytes, both checked
// against the remaining payload before any allocation, so a forged count
// or length cannot force unbounded work.

// EncodeBatch frames already-marshaled values into one batch payload.
func EncodeBatch(items [][]byte) []byte {
	return AppendBatch(nil, items)
}

// AppendBatch appends the batch framing of items to dst and returns the
// extended buffer — the scratch-reuse form of EncodeBatch, so a server
// flushing thousands of runs can recycle one buffer instead of allocating
// per flush.
func AppendBatch(dst []byte, items [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, it := range items {
		size += binary.MaxVarintLen64 + len(it)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	dst = AppendBatchCount(dst, len(items))
	for _, it := range items {
		dst = AppendBatchItem(dst, it)
	}
	return dst
}

// AppendBatchCount appends a batch payload's element count to dst. It
// and AppendBatchItem build a batch incrementally: the count followed by
// that many items is exactly AppendBatch's output.
func AppendBatchCount(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// AppendBatchItem appends one already-marshaled element in batch framing.
func AppendBatchItem(dst, item []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(item))), item...)
}

// DecodeBatch splits a batch payload into its still-encoded elements. The
// returned slices alias data; they are not copied. The whole payload must
// be consumed.
func DecodeBatch(data []byte, lim Limits) ([][]byte, error) {
	pos := 0
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("wire: bad batch count")
	}
	pos += n
	if count > uint64(lim.MaxElems) {
		return nil, ErrTooLarge
	}
	if count > uint64(len(data)-pos) {
		// Each element costs at least one length byte; a count beyond the
		// remaining payload is forged.
		return nil, fmt.Errorf("wire: batch count %d exceeds payload", count)
	}
	items := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		sz, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("wire: bad length for batch element %d", i)
		}
		pos += n
		if sz > uint64(lim.MaxBytes) {
			return nil, ErrTooLarge
		}
		if sz > uint64(len(data)-pos) {
			return nil, fmt.Errorf("wire: truncated batch element %d", i)
		}
		items = append(items, data[pos:pos+int(sz)])
		pos += int(sz)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", len(data)-pos)
	}
	return items, nil
}

// MarshalBatch encodes vs into one batch payload under DefaultLimits.
func MarshalBatch(vs []value.V) ([]byte, error) {
	items := make([][]byte, len(vs))
	for i, v := range vs {
		data, err := Marshal(v)
		if err != nil {
			return nil, err
		}
		items[i] = data
	}
	return EncodeBatch(items), nil
}

// UnmarshalBatch decodes a batch payload into values under lim.
func UnmarshalBatch(data []byte, lim Limits) ([]value.V, error) {
	vs, err := UnmarshalBatchInto(nil, data, lim)
	if err != nil {
		return nil, err
	}
	return vs, nil
}

// UnmarshalBatchInto decodes a batch payload, appending the values to dst
// — the scratch-reuse form of UnmarshalBatch for long-lived read loops.
// The decoded values never alias data (the codec copies everything it
// keeps), so the caller may recycle both dst and data freely.
func UnmarshalBatchInto(dst []value.V, data []byte, lim Limits) ([]value.V, error) {
	pos := 0
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, fmt.Errorf("wire: bad batch count")
	}
	pos += n
	if count > uint64(lim.MaxElems) {
		return dst, ErrTooLarge
	}
	if count > uint64(len(data)-pos) {
		return dst, fmt.Errorf("wire: batch count %d exceeds payload", count)
	}
	for i := uint64(0); i < count; i++ {
		sz, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return dst, fmt.Errorf("wire: bad length for batch element %d", i)
		}
		pos += n
		if sz > uint64(lim.MaxBytes) {
			return dst, ErrTooLarge
		}
		if sz > uint64(len(data)-pos) {
			return dst, fmt.Errorf("wire: truncated batch element %d", i)
		}
		v, err := UnmarshalLimits(data[pos:pos+int(sz)], lim)
		if err != nil {
			return dst, fmt.Errorf("wire: batch element %d: %w", i, err)
		}
		dst = append(dst, v)
		pos += int(sz)
	}
	if pos != len(data) {
		return dst, fmt.Errorf("wire: %d trailing bytes after batch", len(data)-pos)
	}
	return dst, nil
}
