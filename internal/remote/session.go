package remote

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/inspect"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Multiplexed sessions (protocol v5): one TCP connection carrying many
// logical streams. The handshake is a classic-framed OPEN in mode openMux
// answered by a classic HELLO; from there every frame in both directions
// carries a stream id (readMux/appendMuxFrame), a single shared writer
// goroutine per connection coalesces all streams' frames into large
// writes (PR 4's Nagle-style batching, stretched across the whole
// connection), credit accounting stays per stream — the §3B buffer bound
// throttles each producer independently — and PING/PONG liveness runs
// once per connection on stream id 0 instead of once per stream.

// Session-level telemetry. The flush histogram is the headline: how many
// bytes each coalesced write carried tells you whether the shared writer
// is actually amortizing syscalls across streams.
var (
	cMuxFlushes = telemetry.NewCounter("remote.mux.flushes")
	hMuxFlush   = telemetry.NewHistogram("remote.mux.flush_bytes")
	gMuxSess    = telemetry.NewGauge("remote.mux.sessions")
	cMuxStreams = telemetry.NewCounter("remote.mux.streams_total")
)

// muxSessions counts live sessions process-wide (both ends), mirrored
// into the gauge when telemetry is on.
var muxSessions atomic.Int64

// DefaultStreamsPerConn caps the logical streams a Dialer multiplexes
// onto one session before dialing another connection.
const DefaultStreamsPerConn = 256

// maxSessionPending bounds the shared writer's pending buffer. When the
// connection cannot drain this much, enqueue blocks — the per-connection
// backpressure the watchdog diagnoses as conn-backpressure.
var maxSessionPending = 8 << 20

// corkBytes is the shared writer's small-write threshold: a writer that
// wakes to less than this pending yields once before swapping the buffer,
// so frames that runnable producers are about to enqueue ride the same
// Write (grpc-go's loopy writer corks the same way).
const corkBytes = 1 << 10

// errMuxUnsupported reports that the far daemon predates protocol v5.
// The Dialer caches it per address and opens dedicated v4 connections
// there instead — the transparent downgrade.
var errMuxUnsupported = errors.New("remote: server does not support multiplexed sessions")

// muxIO is a session's shared write side, symmetric between client and
// server: frames from every stream append to one pending buffer, and a
// single writer goroutine swaps the buffer out and hands it to the kernel
// in one Write — frames from concurrent streams coalesce into large
// writes exactly as a batched pipe coalesces values into runs.
type muxIO struct {
	conn net.Conn
	ih   *inspect.Handle // the session handle: the writer's visible state
	done chan struct{}   // writer goroutine exited

	mu      sync.Mutex
	work    sync.Cond // frames pending
	space   sync.Cond // pending shrank below the bound
	pending []byte
	spare   []byte // recycled swap buffer
	err     error
	closed  bool
}

func newMuxIO(conn net.Conn, ih *inspect.Handle) *muxIO {
	m := &muxIO{conn: conn, ih: ih, done: make(chan struct{})}
	m.work.L = &m.mu
	m.space.L = &m.mu
	go m.run()
	return m
}

// enqueue appends one multiplexed frame and wakes the writer. It blocks
// while the pending buffer is over maxSessionPending — the connection is
// not draining, so every producer on it stalls together (the watchdog's
// conn-backpressure cause).
func (m *muxIO) enqueue(typ byte, sid uint32, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("remote: %s payload %d exceeds MaxFrame", frameName(typ), len(payload))
	}
	m.mu.Lock()
	for len(m.pending) >= maxSessionPending && m.err == nil && !m.closed {
		m.space.Wait()
	}
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return err
	}
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("%w: session closed", errConnLost)
	}
	m.pending = appendMuxFrame(m.pending, typ, sid, payload)
	m.work.Signal()
	m.mu.Unlock()
	return nil
}

// run is the per-connection writer: swap out whatever is pending and
// write it in one call. The blocked-put bracket around conn.Write is what
// makes a stuck connection diagnosable — the session handle sitting in
// blocked-put past the stall threshold is the shared writer wedged on a
// peer that stopped reading.
func (m *muxIO) run() {
	m.mu.Lock()
	for {
		for len(m.pending) == 0 && m.err == nil && !m.closed {
			m.work.Wait()
		}
		if len(m.pending) < corkBytes && m.err == nil && !m.closed {
			// Cork: one yield lets runnable producers append their frames
			// first. Only this goroutine empties pending, so it is still
			// non-empty afterwards; a close or fail during the yield is
			// caught below, and a closing writer never waits.
			m.mu.Unlock()
			runtime.Gosched()
			m.mu.Lock()
		}
		if m.err != nil || len(m.pending) == 0 {
			m.mu.Unlock()
			close(m.done)
			return
		}
		batch := m.pending
		m.pending = m.spare[:0]
		m.spare = nil
		m.space.Broadcast()
		m.mu.Unlock()
		m.ih.BlockedPut()
		_, werr := m.conn.Write(batch)
		m.ih.Running()
		m.ih.Produced(1) // one flush; touches lastActive for staleness
		if telemetry.On() {
			cMuxFlushes.Inc()
			hMuxFlush.Observe(int64(len(batch)))
		}
		m.mu.Lock()
		if cap(batch) <= maxSessionPending {
			m.spare = batch[:0]
		}
		if werr != nil && m.err == nil {
			m.err = fmt.Errorf("%w: %v", errConnLost, werr)
			m.space.Broadcast()
		}
	}
}

// fail poisons the writer and severs the connection: blocked enqueues
// return err, and a writer wedged in conn.Write is unblocked by the
// close.
func (m *muxIO) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.work.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
	m.conn.Close()
}

// close drains pending frames and closes the connection — the graceful
// shutdown, bounded by a write deadline so a dead peer cannot hang it.
func (m *muxIO) close() {
	m.mu.Lock()
	m.closed = true
	m.work.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
	m.conn.SetWriteDeadline(time.Now().Add(time.Second))
	<-m.done
	m.conn.Close()
}

// muxRx is the client-side receive state of one logical stream on a
// session — what the dedicated-connection path keeps on its readLoop
// goroutine's stack lives here instead, because the session's single read
// goroutine demultiplexes frames for every stream.
type muxRx struct {
	p        *RemotePipe
	sid      uint32
	stream   uint64 // telemetry stream ID (the OPEN's, stitching traces)
	label    string // span label, captured at open (addr can change later)
	out      queue.Queue[value.V]
	ih       *inspect.Handle
	done     chan struct{}
	received atomic.Int64
	start    time.Time
}

// close completes the stream's local state. Exactly-once is guaranteed by
// the demux table: an rx is only ever reachable through it, and finish
// removes it before closing.
func (rx *muxRx) close() {
	close(rx.done)
	rx.out.Close()
	rx.ih.Close()
	if rx.stream != 0 {
		telemetry.EmitSpan(rx.stream, telemetry.KindStreamEnd, rx.label, rx.received.Load(), rx.start)
	}
}

// Session is one multiplexed connection on the client side: the shared
// writer, the demultiplexing read loop, the per-connection heartbeat, and
// the table of live logical streams.
type Session struct {
	addr string
	id   uint64 // connection id: labels, /debug/streams grouping
	hb   time.Duration
	io   *muxIO
	ih   *inspect.Handle
	d    *Dialer
	done chan struct{}

	mu      sync.Mutex
	streams map[uint32]*muxRx
	pending int // reserved-but-not-yet-opened slots (Dialer cap accounting)
	nextSID uint32
	opened  uint64
	closed  bool

	vals []value.V // VALUES decode scratch; read goroutine only
}

// dialSession dials addr and performs the v5 handshake. A pre-v5 server
// rejects the versioned OPEN with the standard downgrade message, which
// surfaces as errMuxUnsupported; anything else is a real dial failure.
func dialSession(d *Dialer, addr string) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, d.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	id := telemetry.NextStream()
	hello := openReq{
		mode:    openMux,
		version: sessionVersion,
		credit:  uint64(d.streamsPerConn()),
		stream:  id,
	}
	if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: %w", addr, err)
	}
	conn.SetReadDeadline(time.Now().Add(d.dialTimeout()))
	typ, payload, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: %w", addr, err)
	}
	switch typ {
	case frameHello:
	case frameErr:
		conn.Close()
		if n, ok := versionCap(string(payload)); ok && n < sessionVersion {
			return nil, errMuxUnsupported
		}
		return nil, &RemoteError{Msg: string(payload)}
	default:
		conn.Close()
		return nil, fmt.Errorf("remote: session open %s: unexpected %s frame", addr, frameName(typ))
	}
	conn.SetReadDeadline(time.Time{})
	s := &Session{
		addr:    addr,
		id:      id,
		hb:      d.heartbeat(),
		d:       d,
		done:    make(chan struct{}),
		streams: make(map[uint32]*muxRx),
	}
	s.ih = inspect.Register(id, inspect.KindSession, "session:"+addr)
	s.ih.SetConn(id)
	s.io = newMuxIO(conn, s.ih)
	if n := muxSessions.Add(1); telemetry.On() {
		gMuxSess.Set(n)
	}
	go s.readLoop()
	go s.pingLoop()
	return s, nil
}

// Addr reports the session's dialed address.
func (s *Session) Addr() string { return s.addr }

// ID reports the session's connection id (telemetry stream-ID space).
func (s *Session) ID() uint64 { return s.id }

// Streams reports the live logical stream count.
func (s *Session) Streams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// count reports live plus reserved streams — the Dialer's pooling key.
func (s *Session) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams) + s.pending
}

// tryReserve claims a stream slot under limit, counting live and claimed
// slots both, so concurrent opens cannot overshoot the streams-per-conn
// cap; openStream consumes the claim.
func (s *Session) tryReserve(limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.streams)+s.pending >= limit {
		return false
	}
	s.pending++
	return true
}

// openStream registers the stream's receive state and enqueues its OPEN
// (or RESUME). rx must be fully armed before the call: frames may land
// the moment the OPEN reaches the wire.
func (s *Session) openStream(rx *muxRx, typ byte, payload []byte) (uint32, error) {
	s.mu.Lock()
	if s.pending > 0 {
		s.pending--
	}
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: session closed", errConnLost)
	}
	s.nextSID++
	sid := s.nextSID
	rx.sid = sid
	s.streams[sid] = rx
	s.opened++
	s.mu.Unlock()
	if telemetry.On() {
		cMuxStreams.Inc()
	}
	if err := s.io.enqueue(typ, sid, payload); err != nil {
		s.mu.Lock()
		delete(s.streams, sid)
		s.mu.Unlock()
		return 0, err
	}
	return sid, nil
}

// finish completes one logical stream: remove it from the demux table and
// close its local state. Late frames for the id simply miss the table.
func (s *Session) finish(sid uint32) {
	s.mu.Lock()
	rx := s.streams[sid]
	delete(s.streams, sid)
	s.mu.Unlock()
	if rx != nil {
		rx.close()
	}
}

// closeStream cancels one logical stream (consumer-side Stop): a
// best-effort CANCEL so the server releases its producer promptly, then
// local completion. Siblings on the session are untouched. A stream that
// already left the demux table (EOS, ERR, teardown) needs no CANCEL —
// its server producer is gone, and skipping the frame keeps the
// stop-after-drain path off the wire entirely.
func (s *Session) closeStream(sid uint32) {
	s.mu.Lock()
	_, live := s.streams[sid]
	s.mu.Unlock()
	if !live {
		return
	}
	s.io.enqueue(frameCancel, sid, nil)
	s.finish(sid)
}

// Kill severs the connection abruptly — the chaos hook. Every stream on
// the session fails with connection loss, exactly as a crashed peer
// looks.
func (s *Session) Kill() { s.io.conn.Close() }

// Close fails open streams and closes the connection. The Dialer calls
// this on Close; streams ending normally never do.
func (s *Session) Close() {
	s.teardown(fmt.Errorf("%w: session closed", errConnLost))
}

// teardown fails every open stream and retires the session. Idempotent;
// runs from the read loop (connection loss or protocol violation) or
// Close.
func (s *Session) teardown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	streams := s.streams
	s.streams = make(map[uint32]*muxRx)
	s.mu.Unlock()
	s.io.fail(err)
	for _, rx := range streams {
		rx.p.fail(err)
		rx.close()
	}
	s.ih.Close()
	if n := muxSessions.Add(-1); telemetry.On() {
		gMuxSess.Set(n)
	}
	close(s.done)
	if s.d != nil {
		s.d.drop(s.addr, s)
	}
}

// readLoop demultiplexes inbound frames onto the per-stream receive
// state. Stream id 0 is connection liveness; everything else dispatches
// by id, and ids missing from the table (finished streams) are dropped —
// a server flush can legitimately race a cancel.
func (s *Session) readLoop() {
	fr := newFrameReader(s.io.conn, 4*s.hb)
	var ferr error
loop:
	for {
		typ, sid, payload, err := fr.readMux()
		if err != nil {
			ferr = fmt.Errorf("%w: %v", errConnLost, err)
			break
		}
		if sid == 0 {
			switch typ {
			case framePing:
				s.io.enqueue(framePong, 0, nil)
			case framePong:
			default:
				ferr = fmt.Errorf("remote: unexpected session-level %s frame", frameName(typ))
				break loop
			}
			continue
		}
		s.mu.Lock()
		rx := s.streams[sid]
		s.mu.Unlock()
		if rx == nil {
			continue
		}
		if !s.handleStreamFrame(rx, typ, payload) {
			s.finish(sid)
		}
	}
	s.teardown(ferr)
}

// handleStreamFrame applies one inbound frame to a logical stream — the
// session-side mirror of RemotePipe.readLoop's switch. Returns false when
// the stream is finished (EOS, ERR, consumer gone, malformed frame).
//
// The put into the stream's bounded queue cannot stall the demux loop in
// a conforming exchange: the §3B credit protocol guarantees the server
// never has more values in flight than the client's queue has room for,
// so one slow consumer's stream fills its own window and stalls its own
// producer (on the server, in acquire) — never its siblings' frames.
func (s *Session) handleStreamFrame(rx *muxRx, typ byte, payload []byte) bool {
	p := rx.p
	switch typ {
	case frameValue:
		v, err := wire.Unmarshal(payload)
		if err != nil {
			p.fail(fmt.Errorf("remote: malformed value frame: %w", err))
			return false
		}
		rx.received.Add(1)
		if rx.stream != 0 && telemetry.On() {
			cClientValues.Inc()
		}
		if rx.out.Put(v) != nil {
			s.io.enqueue(frameCancel, rx.sid, nil)
			return false
		}
		rx.ih.Produced(1)
	case frameValues:
		var err error
		s.vals, err = wire.UnmarshalBatchInto(s.vals[:0], payload, wire.DefaultLimits)
		if err != nil {
			p.fail(fmt.Errorf("remote: malformed batch frame: %w", err))
			return false
		}
		rx.received.Add(int64(len(s.vals)))
		if rx.stream != 0 && telemetry.On() {
			cClientValues.Add(int64(len(s.vals)))
		}
		if _, err := rx.out.PutBatch(s.vals); err != nil {
			s.io.enqueue(frameCancel, rx.sid, nil)
			return false
		}
		rx.ih.Produced(int64(len(s.vals)))
	case frameEOS:
		return false
	case frameSnapshot:
		produced, ok, rest, err := parseSnapshot(payload)
		if err != nil {
			p.fail(err)
			return false
		}
		p.noteSnapshot(produced, ok, rest)
	case frameErr:
		p.fail(&RemoteError{Msg: string(payload)})
		return false
	case framePing, framePong:
		// tolerated on a stream id, as on dedicated connections
	default:
		p.fail(fmt.Errorf("remote: unexpected %s frame", frameName(typ)))
		return false
	}
	return true
}

// pingLoop keeps the connection alive — one heartbeat per connection,
// however many streams it carries, where v4 paid one per stream.
func (s *Session) pingLoop() {
	t := time.NewTicker(s.hb)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if s.io.enqueue(framePing, 0, nil) != nil {
				return
			}
		}
	}
}
