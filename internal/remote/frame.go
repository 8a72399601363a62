// Package remote serves generators across process boundaries: it is the
// network transport behind remote pipes. The paper's pipe |>e proxies a
// co-expression through a bounded blocking queue to another thread (§3B);
// this package keeps that contract — lazy, demand-driven, terminated by
// Icon failure — and swaps the in-memory queue for a framed TCP protocol,
// the same move as Tarau's "logic engines as interactors" (engines exposed
// as answer-serving agents over a protocol).
//
// # Protocol
//
// One connection carries one stream. The client sends OPEN naming either a
// registered generator (plus arguments) or a vetted Junicon source
// program; the server runs the generator and streams results back:
//
//	client                          server
//	  | OPEN{name|source, args, credit}
//	  |------------------------------>|
//	  |<------------------- VALUE ... |   (at most `credit` unacknowledged)
//	  | CREDIT{1}                     |   (after each consumed value)
//	  |------------------------------>|
//	  |<------------------------- EOS |   (generator failed = clean end)
//	  |<------------------------- ERR |   (producer error, vet rejection)
//	  | PING / PONG in both gaps      |   (liveness)
//	  | CANCEL                        |   (consumer stopped the pipe)
//
// Flow control is credit-based: the server may have at most as many
// unacknowledged VALUE frames in flight as the client has granted credits,
// and the client grants exactly its pipe buffer up front then one credit
// per consumed value. The pipe's buffer bound therefore throttles the
// remote producer exactly as §3B's bounded queue throttles a local
// threaded co-expression — a RemotePipe with buffer 1 degenerates to a
// remote future/M-var, just as locally.
//
// Failure propagates faithfully: the serving generator's Icon failure
// becomes EOS (the remote pipe's Next fails, Err() == nil); a producer
// runtime error or panic becomes ERR (Next fails, Err() reports it),
// mirroring pipe.Pipe.Err. Connection loss, deadline expiry and malformed
// frames also surface through Err() — never as a hang.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"junicon/internal/telemetry"
)

// Wire-level telemetry: every frame written or read in this process
// (client and server sides both funnel through writeFrame/readFrame)
// counts frames and bytes when telemetry is enabled — the disabled path
// is one atomic load per frame, negligible next to the syscall.
var (
	cFramesTx = telemetry.NewCounter("remote.frames_tx")
	cBytesTx  = telemetry.NewCounter("remote.bytes_tx")
	cFramesRx = telemetry.NewCounter("remote.frames_rx")
	cBytesRx  = telemetry.NewCounter("remote.bytes_rx")
)

// Frame types. Append-only, like the wire codec's tag space.
const (
	frameOpen   byte = 0x01 // client→server: open a stream
	frameCredit byte = 0x02 // client→server: grant n more credits
	frameValue  byte = 0x03 // server→client: one wire-encoded result
	frameEOS    byte = 0x04 // server→client: generator failed (clean end)
	frameErr    byte = 0x05 // either: fatal stream error, payload = message
	framePing   byte = 0x06 // either: liveness probe
	framePong   byte = 0x07 // either: probe answer
	frameCancel byte = 0x08 // client→server: stop the stream
	frameValues byte = 0x09 // server→client: a batch of wire-encoded results
	// Durable-generator frames (protocol v4). SNAPSHOT piggybacks on the
	// credit-grant cadence — the server emits one after every checkpoint
	// interval of delivered values, so §3B flow control bounds checkpoint
	// lag exactly as it bounds queue depth. RESUME is an alternative opening
	// frame carrying a snapshot blob; SNAPREQ forces an immediate snapshot
	// (the migration handshake).
	frameSnapshot byte = 0x0a // server→client: checkpoint blob or refusal
	frameResume   byte = 0x0b // client→server: open by restoring a snapshot
	frameSnapReq  byte = 0x0c // client→server: demand a snapshot now
	// frameHello (protocol v5) is the server's answer to a session OPEN
	// (mode openMux at version 5): from the byte after it, both directions
	// switch to multiplexed framing — every frame gains a stream-id header
	// and one connection carries many logical streams.
	frameHello byte = 0x0d
)

// MaxFrame bounds a single frame payload; larger length prefixes are
// treated as a protocol error, protecting both sides from hostile peers.
const MaxFrame = 32 << 20

// frameName makes protocol errors readable.
func frameName(t byte) string {
	switch t {
	case frameOpen:
		return "OPEN"
	case frameCredit:
		return "CREDIT"
	case frameValue:
		return "VALUE"
	case frameEOS:
		return "EOS"
	case frameErr:
		return "ERR"
	case framePing:
		return "PING"
	case framePong:
		return "PONG"
	case frameCancel:
		return "CANCEL"
	case frameValues:
		return "VALUES"
	case frameSnapshot:
		return "SNAPSHOT"
	case frameResume:
		return "RESUME"
	case frameSnapReq:
		return "SNAPREQ"
	case frameHello:
		return "HELLO"
	}
	return fmt.Sprintf("frame %#x", t)
}

// frameCopyLimit is the payload size up to which writeFrame stages the
// header and payload in one recycled buffer for a single Write call —
// halving syscalls on the steady VALUES path. Larger payloads are written
// header-then-payload: copying megabytes to save one syscall is a loss.
const frameCopyLimit = 64 << 10

// frameBufPool recycles writeFrame's staging buffers. Buffers are bounded
// by frameCopyLimit + header, so the pool never pins large payloads.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// writeFrame emits one frame: 1-byte type, 4-byte big-endian payload
// length, payload. Callers serialize access to w. Small frames are staged
// in a pooled buffer and written in one call.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("remote: %s payload %d exceeds MaxFrame", frameName(typ), len(payload))
	}
	var err error
	if len(payload) <= frameCopyLimit {
		bp := frameBufPool.Get().(*[]byte)
		b := (*bp)[:0]
		b = append(b, typ)
		b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
		b = append(b, payload...)
		_, err = w.Write(b)
		*bp = b[:0]
		frameBufPool.Put(bp)
	} else {
		hdr := [5]byte{typ}
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
		if _, err = w.Write(hdr[:]); err == nil {
			_, err = w.Write(payload)
		}
	}
	if err != nil {
		return err
	}
	if telemetry.On() {
		cFramesTx.Inc()
		cBytesTx.Add(int64(5 + len(payload)))
	}
	return nil
}

// readFrame reads one frame, rejecting oversized length prefixes before
// allocating. It allocates a fresh payload per frame and is kept for
// one-shot reads (handshakes, raw protocol tests) where the payload's
// lifetime is unknown; the long-lived read loops use a frameReader, whose
// recycled buffer makes the steady-state VALUES path allocation-free.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("remote: frame length %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if telemetry.On() {
		cFramesRx.Inc()
		cBytesRx.Add(int64(5 + n))
	}
	return hdr[0], payload, nil
}

// frameReadBuf is the frameReader's kernel-read size. The session
// writer coalesces a flush of many small frames into one Write; a buffer
// this size takes a whole typical flush in one read syscall instead of
// two per frame. Payloads larger than it bypass the buffer and read
// straight into the payload scratch.
const frameReadBuf = 16 << 10

// frameReader reads frames through a fixed read buffer into a reusable
// payload buffer. The returned payload is valid only until the next read
// — exactly the lifetime the decode paths need, since wire.Unmarshal
// copies everything it keeps and OPEN payloads (whose parse aliases the
// buffer) are copied explicitly by the session demux. One reader per
// connection read loop: no pool contention and no cross-goroutine
// aliasing. It may read ahead of the frame it returns, so it must be
// created only after the last unbuffered readFrame on its connection
// (the handshakes).
type frameReader struct {
	r   *bufio.Reader
	buf []byte
	// hdr is the header scratch; a local array would escape through the
	// io.Reader interface and cost one allocation per frame.
	hdr [muxHeaderLen]byte
}

// newFrameReader reads frames from r. When r is a connection and idle is
// positive, every read that goes to the kernel first moves the read
// deadline idle ahead: the connection fails once idle passes with no
// bytes arriving, whether the peer went silent between frames or
// partway through one.
func newFrameReader(r io.Reader, idle time.Duration) *frameReader {
	if c, ok := r.(readDeadliner); ok && idle > 0 {
		r = &deadlineReader{c: c, idle: idle}
	}
	return &frameReader{r: bufio.NewReaderSize(r, frameReadBuf)}
}

// readDeadliner is the part of a net.Conn the liveness rule needs.
type readDeadliner interface {
	io.Reader
	SetReadDeadline(time.Time) error
}

// deadlineReader refreshes the read deadline before each kernel read.
type deadlineReader struct {
	c    readDeadliner
	idle time.Duration
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	// A failure here means the connection is closed, which Read reports.
	_ = d.c.SetReadDeadline(time.Now().Add(d.idle))
	return d.c.Read(p)
}

// payload returns the scratch buffer sized to n, growing (and
// occasionally shrinking, so one huge frame does not pin its high-water
// mark for the connection's lifetime) as needed.
func (f *frameReader) payload(n uint32) []byte {
	if uint32(cap(f.buf)) < n || (cap(f.buf) > 1<<20 && n < 1<<16) {
		f.buf = make([]byte, n)
	}
	return f.buf[:n]
}

// read reads one classic frame (type, length, payload).
func (f *frameReader) read() (byte, []byte, error) {
	hdr := f.hdr[:5]
	if _, err := io.ReadFull(f.r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("remote: frame length %d exceeds MaxFrame", n)
	}
	payload := f.payload(n)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return 0, nil, err
	}
	if telemetry.On() {
		cFramesRx.Inc()
		cBytesRx.Add(int64(5 + n))
	}
	return hdr[0], payload, nil
}

// ---- multiplexed framing (protocol v5) ----
//
// After the session handshake (a classic OPEN in mode openMux answered by
// a classic HELLO), every frame in both directions carries a stream id
// between the type and the length: [type:1][stream:4 BE][len:4 BE]
// [payload]. Stream id 0 is the connection itself — PING/PONG liveness is
// per-connection under v5, not per-stream.

// muxHeaderLen is the multiplexed frame header size.
const muxHeaderLen = 9

// appendMuxFrame appends one multiplexed frame to dst — the shared
// session writer builds its coalesced write buffers with this.
func appendMuxFrame(dst []byte, typ byte, sid uint32, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, sid)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	if telemetry.On() {
		cFramesTx.Inc()
		cBytesTx.Add(int64(muxHeaderLen + len(payload)))
	}
	return dst
}

// readMux reads one multiplexed frame (type, stream id, payload) into the
// recycled buffer.
func (f *frameReader) readMux() (byte, uint32, []byte, error) {
	hdr := f.hdr[:]
	if _, err := io.ReadFull(f.r, hdr); err != nil {
		return 0, 0, nil, err
	}
	sid := binary.BigEndian.Uint32(hdr[1:5])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("remote: frame length %d exceeds MaxFrame", n)
	}
	payload := f.payload(n)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return 0, 0, nil, err
	}
	if telemetry.On() {
		cFramesRx.Inc()
		cBytesRx.Add(int64(muxHeaderLen + n))
	}
	return hdr[0], sid, payload, nil
}

// ---- OPEN payload ----

// openVersion guards against skew between mixed-version peers. Version 2
// added the client's telemetry stream ID after the credit grant; version 3
// added the client's batch capability — the largest VALUES frame element
// count it accepts, 0 meaning per-value VALUE frames only. Lower-version
// peers (missing fields) are still accepted and read as zero values, and
// a server capped below the client's version (Server.MaxProtocol) rejects
// the OPEN with a versioned message the client recognizes and redials down
// from. Version 4 added durable generators: the checkpoint interval and
// recovery skip count in OPEN, the RESUME opening frame, and the
// SNAPSHOT/SNAPREQ exchange.
//
// Version 5 added multiplexed sessions. It is deliberately NOT the
// version individual stream opens marshal at: a stream OPEN still speaks
// openVersion (4) whether it travels on a dedicated connection or inside
// a session, so plain RemotePipe behaviour is byte-identical to v4.
// Version 5 appears on the wire only as the session handshake — an OPEN
// in mode openMux at sessionVersion — which a pre-v5 server rejects with
// the same versioned message every other downgrade uses, and the Dialer
// recognizes to fall back to one connection per stream.
const (
	openVersion    = 4
	sessionVersion = 5
)

// Open modes.
const (
	openNamed  byte = 0 // a generator registered on the server
	openSource byte = 1 // a vetted Junicon source program + expression
	openResume byte = 2 // a checkpoint snapshot to restore (v4)
	openMux    byte = 3 // a multiplexed session handshake (v5); no generator
)

// openReq is the decoded OPEN payload.
type openReq struct {
	mode    byte
	version byte   // wire version to marshal as; 0 means openVersion
	credit  uint64 // initial credit grant == client pipe buffer
	stream  uint64 // client telemetry stream ID; 0 = unobserved client
	batch   uint64 // max VALUES batch the client accepts; 0 = no batching
	// v4 durability fields. interval asks the server to emit a SNAPSHOT
	// after every interval delivered values (0 = never). skip asks the
	// server to discard that many leading values before the first delivery
	// — crash recovery replays deterministically up to the resume point.
	interval uint64
	skip     uint64
	name     string // openNamed
	program  string // openSource: declarations (may be empty)
	expr     string // openSource: the generator expression
	blob     []byte // openResume: the checkpoint snapshot
	args     []byte // wire-encoded argument list (decoded lazily server-side)
}

func appendUvarint(b []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], u)]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func (o *openReq) marshal() []byte {
	ver := o.version
	if ver == 0 {
		ver = openVersion
	}
	b := []byte{ver, o.mode}
	b = appendUvarint(b, o.credit)
	b = appendUvarint(b, o.stream)
	if ver >= 3 {
		b = appendUvarint(b, o.batch)
	}
	if ver >= 4 {
		b = appendUvarint(b, o.interval)
		b = appendUvarint(b, o.skip)
	}
	switch o.mode {
	case openNamed:
		b = appendString(b, o.name)
	case openSource:
		b = appendString(b, o.program)
		b = appendString(b, o.expr)
	case openResume:
		b = appendUvarint(b, uint64(len(o.blob)))
		b = append(b, o.blob...)
	case openMux:
		// A session handshake names no generator: credit carries the
		// client's streams-per-conn hint and stream its connection id.
	}
	return append(b, o.args...)
}

type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errors.New("remote: truncated OPEN payload")
	}
	c := r.buf[r.pos]
	r.pos++
	return c, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errors.New("remote: bad uvarint in OPEN payload")
	}
	r.pos += n
	return u, nil
}

func (r *byteReader) string() (string, error) {
	u, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if u > uint64(len(r.buf)-r.pos) {
		return "", errors.New("remote: truncated string in OPEN payload")
	}
	s := string(r.buf[r.pos : r.pos+int(u)])
	r.pos += int(u)
	return s, nil
}

func (r *byteReader) bytes() ([]byte, error) {
	u, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if u > uint64(len(r.buf)-r.pos) {
		return nil, errors.New("remote: truncated bytes in OPEN payload")
	}
	b := r.buf[r.pos : r.pos+int(u)]
	r.pos += int(u)
	return b, nil
}

func parseOpen(payload []byte, maxVer byte) (*openReq, error) {
	r := &byteReader{buf: payload}
	ver, err := r.byte()
	if err != nil {
		return nil, err
	}
	if ver < 1 || ver > maxVer {
		return nil, fmt.Errorf("remote: protocol version %d, want <= %d", ver, maxVer)
	}
	o := &openReq{version: ver}
	if o.mode, err = r.byte(); err != nil {
		return nil, err
	}
	if o.credit, err = r.uvarint(); err != nil {
		return nil, err
	}
	if ver >= 2 {
		if o.stream, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	if ver >= 3 {
		if o.batch, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	if ver >= 4 {
		if o.interval, err = r.uvarint(); err != nil {
			return nil, err
		}
		if o.skip, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	switch o.mode {
	case openNamed:
		if o.name, err = r.string(); err != nil {
			return nil, err
		}
	case openSource:
		if o.program, err = r.string(); err != nil {
			return nil, err
		}
		if o.expr, err = r.string(); err != nil {
			return nil, err
		}
	case openResume:
		if ver < 4 {
			return nil, fmt.Errorf("remote: RESUME requires protocol version 4, got %d", ver)
		}
		if o.blob, err = r.bytes(); err != nil {
			return nil, err
		}
	case openMux:
		if ver < sessionVersion {
			return nil, fmt.Errorf("remote: multiplexed session requires protocol version %d, got %d", sessionVersion, ver)
		}
	default:
		return nil, fmt.Errorf("remote: unknown OPEN mode %d", o.mode)
	}
	o.args = payload[r.pos:]
	return o, nil
}

// ---- SNAPSHOT payload ----

// snapshotPayload encodes a SNAPSHOT frame: the delivered-value count the
// snapshot corresponds to, an ok byte, then either the checkpoint blob
// (ok=1) or a human-readable refusal reason (ok=0). A refusal is a normal
// answer, not an error — the stream keeps flowing and the client falls
// back to replay recovery.
func snapshotPayload(produced uint64, ok bool, rest []byte) []byte {
	b := appendUvarint(nil, produced)
	if ok {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return append(b, rest...)
}

func parseSnapshot(payload []byte) (produced uint64, ok bool, rest []byte, err error) {
	r := &byteReader{buf: payload}
	if produced, err = r.uvarint(); err != nil {
		return 0, false, nil, errors.New("remote: bad SNAPSHOT payload")
	}
	okb, err := r.byte()
	if err != nil {
		return 0, false, nil, errors.New("remote: bad SNAPSHOT payload")
	}
	return produced, okb != 0, payload[r.pos:], nil
}

// versionCap parses the version ceiling out of a server's versioned
// rejection message ("remote: protocol version %d, want <= %d"). Both
// downgrade paths key on it: the per-stream redial (noteDowngrade) and
// the Dialer's v5→v4 session fallback. ok is false for any other message.
func versionCap(msg string) (byte, bool) {
	if !strings.Contains(msg, "protocol version") {
		return 0, false
	}
	i := strings.LastIndex(msg, "want <= ")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(msg[i+len("want <= "):]))
	if err != nil || n < 1 || n > 255 {
		return 0, false
	}
	return byte(n), true
}

// creditPayload encodes a CREDIT grant.
func creditPayload(n uint64) []byte { return appendUvarint(nil, n) }

func parseCredit(payload []byte) (uint64, error) {
	u, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, errors.New("remote: bad CREDIT payload")
	}
	return u, nil
}
