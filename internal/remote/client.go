package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/queue"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/wire"
)

// Client-side stream telemetry. The stream ID allocated at open time is
// sent in the OPEN frame, so the server's producer events carry the same
// ID as this client's consumer events — the hook that lets a distributed
// trace be stitched across the process boundary.
var (
	cClientStreams    = telemetry.NewCounter("remote.client.streams_opened")
	cClientValues     = telemetry.NewCounter("remote.client.values")
	cCreditsSent      = telemetry.NewCounter("remote.client.credits_sent")
	cClientRecoveries = telemetry.NewCounter("remote.client.recoveries")
	cClientMigrations = telemetry.NewCounter("remote.client.migrations")
)

// Defaults for Config zero values.
const (
	// DefaultBuffer matches pipe.DefaultBuffer: the credit window a remote
	// pipe grants its producer when none is configured.
	DefaultBuffer = 1024
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultHeartbeat is the PING interval keeping idle streams alive and
	// detecting dead peers.
	DefaultHeartbeat = 2 * time.Second
	// DefaultBatch is the VALUES-frame batch capability advertised when
	// Config.Batch is zero: the server may pack up to this many values
	// into one frame.
	DefaultBatch = 64
	// DefaultRecoverWait bounds how long a recovering pipe keeps redialing
	// a lost server before giving up and surfacing the original error.
	DefaultRecoverWait = 10 * time.Second
)

// ErrDeadline reports that a Next call waited longer than Config.Deadline;
// the stream is torn down so the pipe fails instead of hanging.
var ErrDeadline = errors.New("remote: deadline exceeded waiting for next value")

// errConnLost is the sentinel under every connection-loss failure — the
// one class of stream death a Config.Recover pipe redials through.
var errConnLost = errors.New("remote: connection lost")

// RemoteError is a server-reported stream error: the serving generator
// raised a runtime error or panicked (the remote analogue of pipe.Pipe's
// producer error), or the server rejected the OPEN (unknown generator,
// vet errors, connection limit).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "remote: server error: " + e.Msg }

// Config tunes a RemotePipe. The zero value is usable.
type Config struct {
	// Buffer is the credit window — the remote equivalent of the pipe's
	// bounded queue size (§3B throttling). <= 0 selects DefaultBuffer;
	// 1 yields remote future/M-var behaviour.
	Buffer int
	// DialTimeout bounds connection establishment; <= 0 selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// Deadline bounds each Next call; 0 means no per-call deadline. On
	// expiry the stream is torn down and Err reports ErrDeadline.
	Deadline time.Duration
	// Heartbeat is the PING interval; <= 0 selects DefaultHeartbeat. A
	// peer silent for several intervals is treated as lost.
	Heartbeat time.Duration
	// Batch is the VALUES-frame capability advertised at OPEN: the server
	// may deliver up to Batch values per frame, and the client coalesces
	// its per-value credit grants into runs of the same size. 0 selects
	// DefaultBatch; negative disables batching entirely (the pipe sends a
	// pre-batching v2 OPEN and receives one VALUE frame per value).
	// Credit accounting is per value either way, so the Buffer bound —
	// §3B's throttle — is unchanged by batching.
	Batch int
	// CheckpointEvery asks a v4 server to checkpoint the stream after every
	// N delivered values (a SNAPSHOT frame piggybacked on the credit
	// cadence, so the Buffer bound also bounds checkpoint lag); 0 disables
	// interval checkpointing. Servers that refuse (non-resumable
	// generators) say so once; the stream flows on regardless.
	CheckpointEvery int
	// Recover redials a lost connection and resumes the stream in place:
	// from the last received checkpoint snapshot when one exists, else by
	// deterministic replay (the server re-runs the generator and skips the
	// values this pipe already delivered). The consumer sees one unbroken
	// sequence — no values lost or duplicated.
	Recover bool
	// RecoverWait bounds total redial time per recovery; <= 0 selects
	// DefaultRecoverWait.
	RecoverWait time.Duration
}

func (c Config) buffer() int {
	if c.Buffer <= 0 {
		return DefaultBuffer
	}
	return c.Buffer
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return c.DialTimeout
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return DefaultHeartbeat
	}
	return c.Heartbeat
}

func (c Config) batch() int {
	if c.Batch < 0 {
		return 0
	}
	if c.Batch == 0 {
		return DefaultBatch
	}
	return c.Batch
}

func (c Config) recoverWait() time.Duration {
	if c.RecoverWait <= 0 {
		return DefaultRecoverWait
	}
	return c.RecoverWait
}

// RemotePipe is a generator proxy whose producer runs in another process:
// the remote counterpart of pipe.Pipe, with the same Next/Restart/Stop/
// Refresh/Err surface and the same core.Stepper contract, so it composes
// under product, alternation, limit, promotion and mapreduce unchanged.
//
// The stream opens lazily on the first Next (as |>e spawns its thread on
// first use); Restart cancels the stream and re-opens a fresh one, which
// re-evaluates the remote generator from the start — the network analogue
// of ^ over a refreshed co-expression.
type RemotePipe struct {
	mu   sync.Mutex
	addr string
	cfg  Config
	spec openReq // immutable template (credit filled per open)

	// dialer, when non-nil, pools this pipe's stream onto a shared
	// multiplexed session (set by Dialer.Open/OpenSource; nil for the
	// package-level constructors, which keep one connection per stream).
	dialer   *Dialer
	tr       transport
	out      queue.Queue[value.V]
	started  bool
	err      error
	results  int
	stream   uint64 // telemetry stream ID, propagated in OPEN; 0 = unobserved
	pingStop chan struct{}
	// Batch negotiation state. batch is the capability sent in the current
	// stream's OPEN (0 when batching is off); debt counts values consumed
	// but not yet credited back — coalesced into one CREDIT frame per run.
	// noBatch records that this server rejected a v3 OPEN, so every later
	// (re)open speaks v2; redial asks the next Next to reopen silently.
	batch   int
	debt    uint64
	noBatch bool
	redial  bool
	// Durability state (protocol v4). verCap is the protocol ceiling
	// learned from a server's versioned rejection (0 = newest); openedVer
	// is what the current stream actually opened with. epoch counts stream
	// incarnations — a credit grant captured under one epoch is dropped
	// rather than written to a different incarnation's connection (the
	// redial double-grant race). lastSnap/lastSnapAt hold the most recent
	// checkpoint blob and the delivered count it corresponds to; snapWait
	// is signaled when a SNAPSHOT answer (blob or refusal) lands; replay
	// buffers values drained off a dying stream during migration, delivered
	// before the target stream's.
	verCap     byte
	openedVer  byte
	epoch      uint64
	lastSnap   []byte
	lastSnapAt uint64
	snapReason string
	snapWait   chan struct{}
	replay     []value.V
	// ih is the live-introspection handle for the current stream; nil when
	// inspection was off at open time. Each (re)open registers afresh.
	ih *inspect.Handle
	// done is closed by readLoop when the stream ends for any reason, so
	// pingLoop exits promptly instead of pinging a dead stream.
	done chan struct{}
}

var (
	_ value.Gen    = (*RemotePipe)(nil)
	_ core.Stepper = (*RemotePipe)(nil)
	_ value.Sized  = (*RemotePipe)(nil)
)

// transport abstracts how a stream incarnation reaches the wire: a
// dedicated connection (one stream per connection, protocols v1–v4) or a
// logical stream on a multiplexed v5 session. The pipe's state machine —
// credits, epochs, recovery, migration — is identical over both.
type transport interface {
	// send writes one control frame (CREDIT, PING, CANCEL, SNAPREQ).
	send(typ byte, payload []byte) error
	// kill severs the underlying connection abruptly — the chaos hook. On
	// a shared session this kills every sibling stream too, exactly as a
	// crashed peer would.
	kill()
	// close ends this one stream gracefully: best-effort CANCEL, then
	// local teardown. On a session it must not disturb siblings.
	close()
}

// connTransport is the classic dedicated connection.
type connTransport struct {
	mu   sync.Mutex // serializes writes: CREDIT, PING, CANCEL
	conn net.Conn
}

func (t *connTransport) send(typ byte, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeFrame(t.conn, typ, payload)
}

func (t *connTransport) kill() { t.conn.Close() }

func (t *connTransport) close() {
	// Best-effort CANCEL so the server can release the stream promptly;
	// closing the connection is the authoritative signal.
	t.send(frameCancel, nil)
	t.conn.Close()
}

// muxTransport is one logical stream on a shared session.
type muxTransport struct {
	s   *Session
	sid uint32
}

func (t *muxTransport) send(typ byte, payload []byte) error {
	return t.s.io.enqueue(typ, t.sid, payload)
}

func (t *muxTransport) kill() { t.s.Kill() }

func (t *muxTransport) close() { t.s.closeStream(t.sid) }

// Open returns a remote pipe over the generator registered under name on
// the server at addr, applied to args. No connection is made until the
// first Next.
func Open(addr, name string, args []value.V, cfg Config) *RemotePipe {
	return &RemotePipe{
		addr: addr,
		cfg:  cfg,
		spec: openReq{mode: openNamed, name: name, args: marshalArgs(args)},
	}
}

// OpenSource returns a remote pipe over a Junicon source stream: program
// holds declarations (may be empty), expr is the generator expression the
// server evaluates and serves. The server vets the source with the static
// analyzer before running it and rejects error-level findings.
func OpenSource(addr, program, expr string, args []value.V, cfg Config) *RemotePipe {
	return &RemotePipe{
		addr: addr,
		cfg:  cfg,
		spec: openReq{mode: openSource, program: program, expr: expr, args: marshalArgs(args)},
	}
}

// marshalArgs encodes the argument vector as one wire list. Encoding
// errors (cyclic arguments) are deferred to open time via a poison value.
func marshalArgs(args []value.V) []byte {
	b, err := wire.Marshal(value.NewList(args...))
	if err != nil {
		return nil // parseOpen side treats empty args as no arguments
	}
	return b
}

// fail records the first fatal stream error.
func (p *RemotePipe) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// composeOpen builds the OPEN (or RESUME, for a continuation) for a new
// stream incarnation at protocol ver. Caller holds p.mu.
func (p *RemotePipe) composeOpen(ver byte) (openReq, byte, error) {
	open := p.spec
	open.version = ver
	open.credit = uint64(p.cfg.buffer())
	open.stream = p.stream
	if b := p.cfg.batch(); b > 1 && !p.noBatch {
		open.batch = uint64(b)
	}
	if ver >= 4 && p.cfg.CheckpointEvery > 0 {
		open.interval = uint64(p.cfg.CheckpointEvery)
	}
	// Continuation: a (re)open with results already delivered is a
	// recovery or migration, not a fresh evaluation. Resume from the last
	// checkpoint when one covers the delivered prefix (skip bridges the
	// values delivered past the snapshot); otherwise ask the server to
	// re-run the generator and skip the whole delivered prefix.
	typ := frameOpen
	if p.results > 0 {
		if ver < 4 {
			return open, typ, fmt.Errorf("remote: cannot resume stream at %s: server speaks protocol %d, need >= 4", p.addr, ver)
		}
		if p.lastSnap != nil && uint64(p.results) >= p.lastSnapAt {
			open.mode = openResume
			open.name, open.program, open.expr = "", "", ""
			open.blob = p.lastSnap
			open.skip = uint64(p.results) - p.lastSnapAt
			typ = frameResume
		} else {
			open.skip = uint64(p.results)
		}
	}
	return open, typ, nil
}

// armLocal initializes the local consumer state for a fresh stream
// incarnation: bounded queue, telemetry, live-introspection handle.
// Caller holds p.mu and has already set batch/openedVer/epoch.
func (p *RemotePipe) armLocal(observed bool, credit, connID uint64) {
	p.debt = 0
	p.snapWait = nil
	p.out = queue.NewArrayBlocking[value.V](p.cfg.buffer())
	if observed {
		p.out = queue.Instrument(p.out, p.stream, "remote")
		cClientStreams.Inc()
		telemetry.Emit(p.stream, telemetry.KindStreamOpen, "remote:"+p.addr, int64(credit))
	}
	if inspect.On() {
		if p.stream == 0 {
			p.stream = telemetry.NextStream()
		}
		p.ih = inspect.Register(p.stream, inspect.KindRemoteClient, "remote:"+p.addr)
		p.ih.SetCredit(int64(credit))
		p.ih.SetConn(connID)
		if p.results > 0 {
			p.ih.NoteResumed()
		}
		probe := p.out
		p.ih.SetDepthProbe(func() (int, int) { return probe.Len(), probe.Cap() })
	} else {
		p.ih = nil
	}
	if p.results > 0 && telemetry.On() {
		cClientRecoveries.Inc()
	}
	p.started = true
	p.err = nil
	p.done = make(chan struct{})
}

// startMux opens the stream as a logical stream on a pooled session when
// the pipe was created through a Dialer. handled=false falls back to a
// dedicated connection: no dialer, a pre-v5 server (the transparent
// downgrade), or a per-stream state that already forced an older
// protocol. Caller holds p.mu.
func (p *RemotePipe) startMux(observed bool) (bool, error) {
	if p.dialer == nil || p.verCap != 0 || p.noBatch {
		return false, nil
	}
	sess, err := p.dialer.session(p.addr)
	if err != nil {
		if errors.Is(err, errMuxUnsupported) {
			return false, nil
		}
		return true, err
	}
	open, typ, err := p.composeOpen(openVersion)
	if err != nil {
		return true, err
	}
	p.batch = int(open.batch)
	p.openedVer = openVersion
	p.epoch++
	p.armLocal(observed, open.credit, sess.id)
	rx := &muxRx{
		p:      p,
		stream: p.stream,
		label:  "remote:" + p.addr,
		out:    p.out,
		ih:     p.ih,
		done:   p.done,
		start:  time.Now(),
	}
	sid, err := sess.openStream(rx, typ, open.marshal())
	if err != nil {
		// The session died between reserve and open. Unwind the armed
		// state; the error already wraps errConnLost, so Recover redials.
		p.started = false
		p.out.Close()
		p.ih.Close()
		p.ih = nil
		return true, err
	}
	p.tr = &muxTransport{s: sess, sid: sid}
	p.pingStop = nil // liveness is per connection: the session pings
	return true, nil
}

// start dials and opens the stream. Caller holds p.mu.
func (p *RemotePipe) start() error {
	observed := telemetry.Active()
	if observed && p.stream == 0 {
		p.stream = telemetry.NextStream()
	}
	if handled, err := p.startMux(observed); handled {
		return err
	}
	conn, err := net.DialTimeout("tcp", p.addr, p.cfg.dialTimeout())
	if err != nil {
		return fmt.Errorf("remote: dial %s: %w", p.addr, err)
	}
	ver := byte(openVersion)
	if p.verCap != 0 && p.verCap < ver {
		ver = p.verCap
	}
	if p.noBatch && ver > 2 {
		// A server that rejected batching predates v3 entirely: speak the
		// pre-batching protocol, which every server accepts.
		ver = 2
	}
	open, typ, err := p.composeOpen(ver)
	if err != nil {
		conn.Close()
		return err
	}
	p.batch = int(open.batch)
	p.openedVer = ver
	p.epoch++
	if err := writeFrame(conn, typ, open.marshal()); err != nil {
		conn.Close()
		return fmt.Errorf("remote: open %s: %w", p.addr, err)
	}
	p.tr = &connTransport{conn: conn}
	p.armLocal(observed, open.credit, 0)
	p.pingStop = make(chan struct{})
	go p.readLoop(conn, p.out, p.done, p.stream, p.ih)
	go p.pingLoop(p.pingStop, p.done)
	return nil
}

// readLoop consumes frames into the local bounded queue until the stream
// ends (EOS), errors (ERR / connection loss / malformed frame) or the
// consumer stops the pipe.
func (p *RemotePipe) readLoop(conn net.Conn, out queue.Queue[value.V], done chan struct{}, stream uint64, ih *inspect.Handle) {
	var received int64
	start := time.Now()
	defer func() {
		close(done)
		conn.Close()
		out.Close()
		ih.Close()
		if stream != 0 {
			telemetry.EmitSpan(stream, telemetry.KindStreamEnd, "remote:"+p.addr, received, start)
		}
	}()
	if ih != nil {
		// The read loop is this stream's local producer: label and bind it
		// so stall diagnoses can include its stack and topology edges form.
		defer inspect.BindProducer(ih)()
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels(inspect.ProducerLabel, inspect.StreamID(ih.ID()))))
		defer pprof.SetGoroutineLabels(context.Background())
	}
	// A peer silent for several heartbeat intervals is lost: PONGs answer
	// our PINGs, so frames normally arrive at least once per interval.
	liveness := 4 * p.cfg.heartbeat()
	// Recycled buffers for the steady-state VALUES path: the frame reader
	// reuses one payload buffer, and batch decoding reuses one value
	// slice (PutBatch copies the elements into the ring, and the codec
	// never aliases the payload).
	fr := newFrameReader(conn, liveness)
	var vals []value.V
	for {
		typ, payload, err := fr.read()
		if err != nil {
			p.fail(fmt.Errorf("%w: %v", errConnLost, err))
			return
		}
		switch typ {
		case frameValue:
			v, err := wire.Unmarshal(payload)
			if err != nil {
				p.fail(fmt.Errorf("remote: malformed value frame: %w", err))
				return
			}
			received++
			if stream != 0 && telemetry.On() {
				cClientValues.Inc()
			}
			if ih != nil {
				ih.BlockedPut()
			}
			if out.Put(v) != nil {
				// Consumer stopped the pipe: tell the producer.
				p.sendFrame(frameCancel, nil)
				return
			}
			if ih != nil {
				ih.Running()
				ih.Produced(1)
			}
		case frameValues:
			vals, err = wire.UnmarshalBatchInto(vals[:0], payload, wire.DefaultLimits)
			if err != nil {
				p.fail(fmt.Errorf("remote: malformed batch frame: %w", err))
				return
			}
			received += int64(len(vals))
			if stream != 0 && telemetry.On() {
				cClientValues.Add(int64(len(vals)))
			}
			if ih != nil {
				ih.BlockedPut()
			}
			if _, err := out.PutBatch(vals); err != nil {
				p.sendFrame(frameCancel, nil)
				return
			}
			if ih != nil {
				ih.Running()
				ih.Produced(int64(len(vals)))
			}
		case frameEOS:
			return // clean end: generator failed
		case frameSnapshot:
			produced, ok, rest, err := parseSnapshot(payload)
			if err != nil {
				p.fail(err)
				return
			}
			p.noteSnapshot(produced, ok, rest)
		case frameErr:
			if p.noteDowngrade(string(payload)) {
				// A pre-batching server refused our v3 OPEN; the teardown in
				// this defer closes out, and the next Next reopens at v2.
				return
			}
			p.fail(&RemoteError{Msg: string(payload)})
			return
		case framePong, framePing:
			// liveness only; PING from the server is tolerated and ignored
		default:
			p.fail(fmt.Errorf("remote: unexpected %s frame", frameName(typ)))
			return
		}
	}
}

// pingLoop keeps the stream alive and detects dead peers while the
// consumer is slow or idle.
func (p *RemotePipe) pingLoop(stop, done chan struct{}) {
	t := time.NewTicker(p.cfg.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-done:
			return
		case <-t.C:
			if err := p.sendFrame(framePing, nil); err != nil {
				// readLoop surfaces the connection loss; just stop pinging.
				return
			}
		}
	}
}

// noteDowngrade recognizes a version rejection from an older server and
// arranges a silent reopen at the version the server names instead of
// surfacing the rejection as a stream error. Only the versioned-OPEN
// rejection message is treated this way, and only when it actually names
// a lower version than we sent (anything else is a real error).
func (p *RemotePipe) noteDowngrade(msg string) bool {
	n, ok := versionCap(msg)
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n >= p.openedVer {
		return false // the server accepts what we sent; this is a real error
	}
	p.verCap = n
	if n < 3 {
		p.noBatch = true // pre-batching server
	}
	p.redial = true
	return true
}

// noteSnapshot records a SNAPSHOT answer: the latest checkpoint blob (or
// the server's refusal) plus the delivered count it corresponds to, and
// wakes a Migrate waiting on it.
func (p *RemotePipe) noteSnapshot(produced uint64, ok bool, rest []byte) {
	p.mu.Lock()
	if ok {
		p.lastSnap = append([]byte(nil), rest...)
		p.lastSnapAt = produced
		p.snapReason = ""
	} else {
		p.snapReason = string(rest)
	}
	ch := p.snapWait
	p.snapWait = nil
	p.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// testHookFlushPause, when set, runs between a flushCredits debt capture
// and its CREDIT write — the window the double-grant regression test uses
// to interleave a redial deterministically.
var testHookFlushPause func()

// flushCredits grants the producer every credit accumulated since the last
// grant in one CREDIT frame. With demand set a frame is sent even when no
// credits are owed: CREDIT(0) is the pure demand ping a consumer about to
// block sends so a batching server flushes its partial run (a pre-batching
// server deposits zero, harmlessly).
//
// The grant is pinned to the stream incarnation it was captured under:
// debt is zeroed under p.mu, but the CREDIT write happens later, and a
// redial (version downgrade, crash recovery, migration) can swap p.conn in
// between. A fresh stream already opens with a full-buffer grant, so a
// stale grant landing on it would over-credit the producer past the §3B
// bound — the epoch check drops it instead.
func (p *RemotePipe) flushCredits(demand bool) {
	p.mu.Lock()
	debt := p.debt
	p.debt = 0
	stream := p.stream
	epoch := p.epoch
	p.mu.Unlock()
	if debt == 0 && !demand {
		return
	}
	if stream != 0 && telemetry.On() {
		cCreditsSent.Inc()
	}
	if testHookFlushPause != nil {
		testHookFlushPause()
	}
	p.sendFrameEpoch(frameCredit, creditPayload(debt), epoch) // best effort; loss surfaces in readLoop
}

// sendFrame serializes control-frame writes against the current stream.
func (p *RemotePipe) sendFrame(typ byte, payload []byte) error {
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	return p.sendFrameEpoch(typ, payload, epoch)
}

// sendFrameEpoch writes a control frame only if the stream incarnation is
// still the one the frame was composed for; a frame that raced a redial is
// dropped, not delivered to the wrong stream. (The transport is captured
// together with the epoch, so a frame that loses the race after the check
// goes to the old incarnation's transport — a dead connection or a
// finished session stream id, both of which discard it.)
func (p *RemotePipe) sendFrameEpoch(typ byte, payload []byte, epoch uint64) error {
	p.mu.Lock()
	tr := p.tr
	cur := p.epoch
	p.mu.Unlock()
	if tr == nil {
		return errors.New("remote: stream not open")
	}
	if cur != epoch {
		return nil // stale frame for a dead incarnation: drop silently
	}
	return tr.send(typ, payload)
}

// Next takes the next remote result, failing when the serving generator
// has failed (EOS), the stream errored, or the per-call deadline expired.
// Each consumed value grants the producer one replacement credit, so at
// most Buffer values are ever in flight — the §3B throttle, across the
// wire.
func (p *RemotePipe) Next() (value.V, bool) {
	p.mu.Lock()
	if len(p.replay) > 0 {
		// Values drained off the previous incarnation during migration:
		// deliver them before touching the new stream. Their credits were
		// spent on the old connection, so no grant is owed here.
		v := p.replay[0]
		p.replay = p.replay[1:]
		p.results++
		p.mu.Unlock()
		return v, true
	}
	if !p.started {
		if err := p.start(); err != nil {
			p.started = true // don't re-dial every Next; Restart resets
			p.err = err
			p.out = queue.NewArrayBlocking[value.V](1)
			p.out.Close()
			p.mu.Unlock()
			return nil, false
		}
	}
	out, tr := p.out, p.tr
	batched := p.batch > 0
	ih := p.ih
	p.mu.Unlock()

	if ih != nil {
		inspect.NoteConsumeOnce(ih)
		ih.BlockedTake()
	}

	var timer *time.Timer
	if d := p.cfg.Deadline; d > 0 {
		timer = time.AfterFunc(d, func() {
			p.fail(ErrDeadline)
			if tr != nil {
				// Tear down this stream only: on a shared session the
				// per-stream close leaves siblings undisturbed.
				tr.close()
			}
			out.Close()
		})
	}
	v, ok, err := out.TryTake()
	if err == nil && !ok {
		if batched {
			// About to block on an empty queue: hand back whatever credits
			// we owe and signal demand, so the server ships its partial run
			// instead of waiting to fill a batch.
			p.flushCredits(true)
		}
		v, err = out.Take()
	}
	if timer != nil {
		timer.Stop()
	}
	if err != nil {
		p.mu.Lock()
		if p.redial {
			// The server named a lower protocol version; reopen there
			// transparently.
			p.redial = false
			p.detachLocked()
			p.mu.Unlock()
			return p.Next()
		}
		serr := p.err
		if p.recoverableLocked(serr) {
			var re *RemoteError
			if errors.As(serr, &re) && strings.Contains(re.Msg, "resume rejected") {
				// The snapshot didn't take (stale blob, resume disabled):
				// drop it and recover by deterministic replay instead.
				p.lastSnap = nil
				p.lastSnapAt = 0
			}
			p.detachLocked()
			p.mu.Unlock()
			if p.reconnect() {
				return p.Next()
			}
			return nil, false
		}
		p.mu.Unlock()
		return nil, false
	}
	p.mu.Lock()
	p.results++
	p.debt++
	grant := !batched || p.debt >= uint64(p.batch)
	if ih != nil {
		ih.Running()
		ih.Consumed(1)
		// The credit balance is the window minus uncredited consumption:
		// what the server may still send before its next stall.
		ih.SetCredit(int64(uint64(p.cfg.buffer()) - p.debt))
	}
	p.mu.Unlock()
	if grant {
		// Unbatched streams credit every value (the original per-value
		// ACK clock); batched streams coalesce a batch's worth into one
		// frame, with the pre-block demand ping above covering the tail.
		p.flushCredits(false)
	}
	return v, true
}

// Err reports the error that terminated the stream, if any: a
// *RemoteError for server-side producer errors and rejections, ErrDeadline
// for per-call deadline expiry, or a connection/protocol error. A remote
// generator that simply ran to failure leaves Err nil, exactly as
// pipe.Pipe distinguishes exhaustion from producer error.
func (p *RemotePipe) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// StartEager opens the stream immediately instead of on first Next — used
// by distributed map-reduce, where all remote task pipes must run
// concurrently from the moment they are created (Figure 4). Dial errors
// surface on the first Next via Err.
func (p *RemotePipe) StartEager() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	if err := p.start(); err != nil {
		p.started = true
		p.err = err
		p.out = queue.NewArrayBlocking[value.V](1)
		p.out.Close()
	}
}

// detachLocked abandons the current stream's client state so the next
// Next opens a fresh one; the stream's teardown (triggered by the queue
// close that got us here) owns the connection. Caller holds p.mu.
func (p *RemotePipe) detachLocked() {
	p.started = false
	p.err = nil
	if p.pingStop != nil {
		close(p.pingStop)
		p.pingStop = nil
	}
	p.tr = nil
}

// recoverableLocked reports whether a terminated stream should be redialed
// and resumed rather than surfaced: only under Config.Recover, and only
// for connection loss or a rejected resume (which retries as replay). A
// server-side producer error, a vet rejection, or a consumer deadline is
// final either way. Caller holds p.mu.
func (p *RemotePipe) recoverableLocked(err error) bool {
	if !p.cfg.Recover || err == nil {
		return false
	}
	if errors.Is(err, errConnLost) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "resume rejected")
}

// reconnect redials until a stream opens or RecoverWait elapses — the
// window a crashed server (junicond restarting under a supervisor) has to
// come back. Returns false with the final dial error recorded.
func (p *RemotePipe) reconnect() bool {
	deadline := time.Now().Add(p.cfg.recoverWait())
	for {
		p.mu.Lock()
		if p.started {
			p.mu.Unlock()
			return true
		}
		err := p.start()
		p.mu.Unlock()
		if err == nil {
			return true
		}
		if time.Now().After(deadline) {
			p.fail(err)
			p.mu.Lock()
			p.started = true // stop re-dialing on every Next; Restart resets
			if p.out == nil {
				p.out = queue.NewArrayBlocking[value.V](1)
			}
			p.out.Close()
			p.mu.Unlock()
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Migrate moves the live stream to the junicond at target mid-iteration
// with no values lost or duplicated: demand a snapshot from the source
// (SNAPREQ), drain everything the source already shipped into the replay
// buffer, cut the connection, and let the next Next open the target with
// RESUME (or deterministic replay when the source refused to snapshot).
// The §3B credit window caps what can be in flight during the cutover, so
// the drain is bounded by the pipe's buffer.
func (p *RemotePipe) Migrate(target string) error {
	p.mu.Lock()
	if !p.started || p.tr == nil || p.err != nil {
		// Nothing live to hand over: just point the pipe at the target.
		// With results already delivered, the next Next resumes there.
		p.addr = target
		p.mu.Unlock()
		return nil
	}
	ih := p.ih
	out := p.out
	done := p.done
	var ch chan struct{}
	if p.openedVer >= 4 {
		ch = make(chan struct{})
		p.snapWait = ch
	}
	p.mu.Unlock()
	ih.Migrating()
	if telemetry.On() {
		cClientMigrations.Inc()
	}

	var replay []value.V
	drain := func() {
		for {
			v, ok, err := out.TryTake()
			if err != nil || !ok {
				return
			}
			replay = append(replay, v)
		}
	}
	if ch != nil {
		p.sendFrame(frameSnapReq, nil)
		// Wait for the snapshot answer while draining the queue: the
		// producer may need the read loop unblocked (queue full) before it
		// can reach the SNAPREQ, and every value it ships before the
		// SNAPSHOT marker must be in hand for the resume arithmetic.
		deadline := time.Now().Add(p.cfg.recoverWait())
		for waiting := true; waiting; {
			drain()
			select {
			case <-ch:
				waiting = false
			case <-done:
				waiting = false
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					waiting = false // no answer: fall back to replay recovery
				}
			}
		}
	}
	// Cut over: stop the source stream and collect everything it shipped.
	// The SNAPSHOT frame is ordered after every value its count covers, so
	// after this final drain delivered+replay >= lastSnapAt — the resume
	// skip is never negative.
	p.sendFrame(frameCancel, nil)
	p.mu.Lock()
	tr := p.tr
	p.tr = nil
	if p.pingStop != nil {
		close(p.pingStop)
		p.pingStop = nil
	}
	p.mu.Unlock()
	if tr != nil {
		tr.close()
	}
	if done != nil {
		<-done // readLoop finished: the queue is closed, nothing more arrives
	}
	drain()
	p.mu.Lock()
	p.started = false
	p.err = nil
	p.addr = target
	p.replay = append(p.replay, replay...)
	p.mu.Unlock()
	return nil
}

// KillConn severs the transport abruptly — no CANCEL, no teardown of the
// local state machine — exactly what a crashed peer or cut network looks
// like. It is the chaos hook the kill/recovery tests drive; real code has
// no reason to call it.
func (p *RemotePipe) KillConn() {
	p.mu.Lock()
	tr := p.tr
	p.mu.Unlock()
	if tr != nil {
		tr.kill()
	}
}

// Checkpointed reports the delivered-value count of the last checkpoint
// snapshot received, and whether one exists.
func (p *RemotePipe) Checkpointed() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSnapAt, p.lastSnap != nil
}

// SnapshotRefusal reports the server's reason for declining to checkpoint
// this stream, if it has declined ("" otherwise) — surfaced so operators
// can tell replay-recovery streams from snapshot-recovery ones.
func (p *RemotePipe) SnapshotRefusal() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapReason
}

// stopLocked cancels the current stream. Caller holds p.mu.
func (p *RemotePipe) stopLocked() {
	if p.tr != nil {
		p.tr.close()
		p.tr = nil
	}
	if p.pingStop != nil {
		close(p.pingStop)
		p.pingStop = nil
	}
	if p.out != nil {
		p.out.Close()
	}
	p.ih.Close()
}

// Stop terminates the stream without restarting; further Nexts fail until
// Restart. Safe to call at any time, including concurrently with Next.
func (p *RemotePipe) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		p.out = queue.NewArrayBlocking[value.V](1)
		p.out.Close()
		p.started = true
		return
	}
	p.stopLocked()
}

// Restart cancels the stream and arranges for a fresh one — a fresh
// evaluation of the remote generator — on the next Next.
func (p *RemotePipe) Restart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		p.stopLocked()
		p.started = false
	}
	p.err = nil
	p.results = 0
	p.lastSnap = nil
	p.lastSnapAt = 0
	p.snapReason = ""
	p.replay = nil
}

// Step implements the activation operator @ on the remote pipe.
func (p *RemotePipe) Step(value.V) (value.V, bool) { return p.Next() }

// Refresh implements ^: a new proxy that will open its own fresh stream.
func (p *RemotePipe) Refresh() core.Stepper {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		p.stopLocked()
	}
	return &RemotePipe{addr: p.addr, cfg: p.cfg, spec: p.spec}
}

// Stream reports the telemetry stream ID sent in the OPEN frame — 0
// unless the stream opened while telemetry was active.
func (p *RemotePipe) Stream() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stream
}

// Size reports the number of results taken so far (*P).
func (p *RemotePipe) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.results
}

// Type returns "co-expression": a remote pipe proxies one, like pipe.Pipe.
func (p *RemotePipe) Type() string { return "co-expression" }

// Image identifies the value as a remote pipe.
func (p *RemotePipe) Image() string { return fmt.Sprintf("remote-pipe(%s)", p.addr) }
