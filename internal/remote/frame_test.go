package remote

// Tests for the buffered frame reader: a coalesced flush costs one kernel
// read, frames decode identically however their bytes are split across
// reads, forged lengths are refused before any allocation, and the
// liveness rule holds on both ends of a connection — it fails once the
// deadline passes with no bytes arriving, whether the peer went silent
// between frames or stalled partway through one.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// countingConn counts the reads and read-deadline refreshes that reach
// the connection beneath a frameReader.
type countingConn struct {
	net.Conn
	reads, deadlines int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.deadlines++
	return c.Conn.SetReadDeadline(t)
}

// TestFrameReaderOneReadPerFlush: k frames written in one Write — the
// session writer's coalesced flush — decode with one read from the
// connection and one deadline refresh, not two reads and a refresh per
// frame.
func TestFrameReaderOneReadPerFlush(t *testing.T) {
	const k = 100
	for _, mux := range []bool{false, true} {
		t.Run(fmt.Sprintf("mux=%v", mux), func(t *testing.T) {
			var flush bytes.Buffer
			for i := 0; i < k; i++ {
				payload := []byte{byte(i), 0xaa, 0xbb}
				if mux {
					flush.Write(appendMuxFrame(nil, frameValues, uint32(i+1), payload))
				} else if err := writeFrame(&flush, frameValues, payload); err != nil {
					t.Fatal(err)
				}
			}
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			wrote := make(chan error, 1)
			go func() {
				_, err := b.Write(flush.Bytes())
				wrote <- err
			}()
			c := &countingConn{Conn: a}
			fr := newFrameReader(c, time.Minute)
			for i := 0; i < k; i++ {
				var typ byte
				var sid uint32
				var payload []byte
				var err error
				if mux {
					typ, sid, payload, err = fr.readMux()
				} else {
					typ, payload, err = fr.read()
					sid = uint32(i + 1)
				}
				if err != nil || typ != frameValues || sid != uint32(i+1) || payload[0] != byte(i) {
					t.Fatalf("frame %d: typ=%d sid=%d payload=%x err=%v", i, typ, sid, payload, err)
				}
			}
			if err := <-wrote; err != nil {
				t.Fatalf("write: %v", err)
			}
			if c.reads != 1 {
				t.Errorf("%d frames in one write took %d conn reads, want 1", k, c.reads)
			}
			if c.deadlines != c.reads {
				t.Errorf("%d deadline refreshes for %d conn reads, want one per read", c.deadlines, c.reads)
			}
		})
	}
}

// decoded is one frame as a frameReader returned it, payload copied.
type decoded struct {
	typ     byte
	sid     uint32
	payload string
}

// decodeAll reads frames from r until a clean EOF at a frame boundary.
func decodeAll(t *testing.T, r io.Reader, mux bool) []decoded {
	t.Helper()
	fr := newFrameReader(r, 0)
	var out []decoded
	for {
		var d decoded
		var payload []byte
		var err error
		if mux {
			d.typ, d.sid, payload, err = fr.readMux()
		} else {
			d.typ, payload, err = fr.read()
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		d.payload = string(payload)
		out = append(out, d)
	}
}

// splitReader serves data in two reads, split at off.
type splitReader struct {
	data []byte
	off  int
	pos  int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if s.pos == len(s.data) {
		return 0, io.EOF
	}
	end := len(s.data)
	if s.pos < s.off {
		end = s.off
	}
	n := copy(p, s.data[s.pos:end])
	s.pos += n
	return n, nil
}

// testFrames encodes a short frame sequence in classic or mux framing:
// a VALUES batch, optionally one payload larger than the read buffer
// (which bypasses it), an empty EOS and an ERR.
func testFrames(t *testing.T, mux, large bool) []byte {
	t.Helper()
	var items [][]byte
	for i := 0; i < 5; i++ {
		data, err := wire.Marshal(value.NewInt(int64(i * 1000)))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, data)
	}
	type frame struct {
		typ     byte
		payload []byte
	}
	frames := []frame{{frameValues, wire.EncodeBatch(items)}}
	if large {
		frames = append(frames, frame{frameSnapshot, bytes.Repeat([]byte("0123456789abcdef"), frameReadBuf/16+100)})
	}
	frames = append(frames, frame{frameEOS, nil}, frame{frameErr, []byte("boom")})
	var buf bytes.Buffer
	for i, f := range frames {
		if mux {
			buf.Write(appendMuxFrame(nil, f.typ, uint32(i+1), f.payload))
		} else if err := writeFrame(&buf, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameReaderSplitReads: a frame sequence split into two reads at any
// byte offset — inside a header, inside a payload, on a boundary —
// decodes exactly as the sequence read whole, and so does the sequence
// delivered one byte per read. With a payload larger than the read
// buffer, the splits that matter are the ones around the buffer size.
func TestFrameReaderSplitReads(t *testing.T) {
	for _, mux := range []bool{false, true} {
		for _, large := range []bool{false, true} {
			t.Run(fmt.Sprintf("mux=%v/large=%v", mux, large), func(t *testing.T) {
				data := testFrames(t, mux, large)
				want := decodeAll(t, bytes.NewReader(data), mux)
				n := 3
				if large {
					n = 4
				}
				if len(want) != n || large && len(want[1].payload) <= frameReadBuf {
					t.Fatalf("decoded %d frames whole, want %d", len(want), n)
				}
				offsets := []int{1, 9, frameReadBuf - 1, frameReadBuf, frameReadBuf + 1, len(data) - 1}
				if !large {
					offsets = offsets[:0]
					for off := 1; off < len(data); off++ {
						offsets = append(offsets, off)
					}
				}
				check := func(what string, got []decoded) {
					t.Helper()
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s decoded differently", what)
					}
				}
				for _, off := range offsets {
					check(fmt.Sprintf("split at %d", off), decodeAll(t, &splitReader{data: data, off: off}, mux))
				}
				check("one byte per read", decodeAll(t, iotest.OneByteReader(bytes.NewReader(data)), mux))
			})
		}
	}
}

// TestFrameReaderRejectsForgedLengthBeforeAllocating: a length prefix
// over MaxFrame fails the read with nothing allocated for the payload.
func TestFrameReaderRejectsForgedLengthBeforeAllocating(t *testing.T) {
	forged := []struct {
		name string
		data []byte
		mux  bool
	}{
		{"classic 4GiB", []byte{frameValues, 0xff, 0xff, 0xff, 0xff}, false},
		{"classic MaxFrame+1", []byte{frameValues, 0x02, 0x00, 0x00, 0x01}, false},
		{"mux 4GiB", []byte{frameValues, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, true},
		{"mux MaxFrame+1", []byte{frameValues, 0, 0, 0, 1, 0x02, 0x00, 0x00, 0x01}, true},
	}
	for _, tc := range forged {
		t.Run(tc.name, func(t *testing.T) {
			fr := newFrameReader(bytes.NewReader(tc.data), 0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if tc.mux {
				_, _, _, err = fr.readMux()
			} else {
				_, _, err = fr.read()
			}
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
				t.Fatalf("forged length: err = %v, want MaxFrame rejection", err)
			}
			if cap(fr.buf) != 0 {
				t.Errorf("payload scratch grew to %d bytes for a rejected frame", cap(fr.buf))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrame/4 {
				t.Errorf("rejecting a forged length allocated %d bytes", grew)
			}
		})
	}
}

// errIsTimeout reports whether err carries a read-deadline expiry — the
// liveness rule firing, as opposed to the peer closing the connection.
func errIsTimeout(err error) bool {
	return err != nil && strings.Contains(err.Error(), "i/o timeout")
}

// partialValueFrame is a VALUE frame cut off inside its payload.
func partialValueFrame(mux bool) []byte {
	data, _ := wire.Marshal(value.String("a payload the peer never finishes"))
	if mux {
		return appendMuxFrame(nil, frameValue, 1, data)[:muxHeaderLen+4]
	}
	var buf bytes.Buffer
	writeFrame(&buf, frameValue, data)
	return buf.Bytes()[:5+4]
}

// TestClientLivenessDeadline: a classic stream and a session stream both
// fail at the liveness deadline when the server goes silent, and when it
// stalls partway through a frame.
func TestClientLivenessDeadline(t *testing.T) {
	for _, mux := range []bool{false, true} {
		for _, stall := range []bool{false, true} {
			t.Run(fmt.Sprintf("mux=%v/midframe=%v", mux, stall), func(t *testing.T) {
				quit := make(chan struct{})
				defer close(quit)
				addr := fakeServer(t, func(conn net.Conn) {
					defer conn.Close()
					if mux {
						typ, _, err := readFrame(conn)
						if err != nil || typ != frameOpen || writeFrame(conn, frameHello, nil) != nil {
							return
						}
					} else if !expectOpen(conn) {
						return
					}
					if stall {
						conn.Write(partialValueFrame(mux))
					}
					<-quit // answer nothing, close nothing
				})
				cfg := testConfig() // heartbeat 25ms → liveness window 100ms
				var p *RemotePipe
				if mux {
					d := &Dialer{Heartbeat: cfg.Heartbeat}
					defer d.Close()
					p = d.Open(addr, "whatever", nil, cfg)
				} else {
					p = Open(addr, "whatever", nil, cfg)
				}
				defer p.Stop()
				within(t, 3*time.Second, "liveness detection", func() {
					if _, ok := p.Next(); ok {
						t.Error("stalled peer produced a value")
					}
				})
				if !errIsTimeout(p.Err()) {
					t.Fatalf("Err = %v, want the liveness deadline's timeout", p.Err())
				}
			})
		}
	}
}

// TestServerIdleDeadline: the server keeps a classic connection and a
// session alive for as long as client bytes keep arriving — past several
// idle timeouts — and drops it once IdleTimeout passes after the client
// goes silent, or stalls partway through a frame.
func TestServerIdleDeadline(t *testing.T) {
	const idle = 200 * time.Millisecond
	for _, mux := range []bool{false, true} {
		for _, stall := range []bool{false, true} {
			t.Run(fmt.Sprintf("mux=%v/midframe=%v", mux, stall), func(t *testing.T) {
				srv, addr := startServer(t, func(s *Server) { s.IdleTimeout = idle })
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if mux {
					hello := &openReq{mode: openMux, version: sessionVersion, credit: 16, stream: 91}
					if err := writeFrame(conn, frameOpen, hello.marshal()); err != nil {
						t.Fatal(err)
					}
					if typ, _, err := readFrame(conn); err != nil || typ != frameHello {
						t.Fatalf("handshake reply: typ=%d err=%v", typ, err)
					}
				} else {
					open := &openReq{mode: openNamed, credit: 0, name: "range"}
					open.args, _ = wire.Marshal(value.NewList(value.NewInt(1), value.NewInt(3)))
					if err := writeFrame(conn, frameOpen, open.marshal()); err != nil {
						t.Fatal(err)
					}
				}
				// Ping for three idle timeouts; every ping must be answered.
				fr := newFrameReader(conn, 0)
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				for start := time.Now(); time.Since(start) < 3*idle; {
					time.Sleep(idle / 6)
					if mux {
						_, err = conn.Write(appendMuxFrame(nil, framePing, 0, nil))
					} else {
						err = writeFrame(conn, framePing, nil)
					}
					for typ := byte(0); err == nil && typ != framePong; {
						if mux {
							typ, _, _, err = fr.readMux()
						} else {
							typ, _, err = fr.read()
						}
					}
					if err != nil {
						t.Fatalf("server dropped a client whose pings kept arriving, after %v: %v", time.Since(start), err)
					}
				}
				if stall {
					if _, err := conn.Write(partialValueFrame(mux)); err != nil {
						t.Fatal(err)
					}
				}
				within(t, 5*time.Second, "idle drop", func() {
					io.Copy(io.Discard, conn) // returns when the server closes
				})
				deadline := time.Now().Add(5 * time.Second)
				for srv.ActiveConns() != 0 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if n := srv.ActiveConns(); n != 0 {
					t.Fatalf("ActiveConns = %d after the idle deadline, want 0", n)
				}
			})
		}
	}
}

// TestLivenessCountsBytesNotFrames: the deadline measures the time since
// bytes last arrived. A frame whose bytes trickle in, each gap well
// inside the liveness window but the whole frame taking several windows,
// is delivered.
func TestLivenessCountsBytesNotFrames(t *testing.T) {
	const hb = 100 * time.Millisecond // liveness window 400ms
	data, _ := wire.Marshal(value.String("trickled, one byte at a time"))
	var frame bytes.Buffer
	writeFrame(&frame, frameValue, data)
	gap := hb / 2
	if total := time.Duration(frame.Len()) * gap; total < 2*4*hb {
		t.Fatalf("frame trickles in %v, want at least two liveness windows", total)
	}
	quit := make(chan struct{})
	defer close(quit)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		if !expectOpen(conn) {
			return
		}
		for _, b := range frame.Bytes() {
			time.Sleep(gap)
			if _, err := conn.Write([]byte{b}); err != nil {
				return
			}
		}
		writeFrame(conn, frameEOS, nil)
		<-quit
	})
	p := Open(addr, "whatever", nil, Config{Buffer: 8, Heartbeat: hb, DialTimeout: time.Second})
	defer p.Stop()
	within(t, 10*time.Second, "trickled frame", func() {
		v, ok := p.Next()
		if !ok {
			t.Fatalf("trickled frame failed the stream: %v", p.Err())
		}
		if s, _ := value.ToString(v); s != "trickled, one byte at a time" {
			t.Fatalf("got %s", value.Image(v))
		}
		if _, ok := p.Next(); ok || p.Err() != nil {
			t.Fatalf("want a clean end after the frame, got ok=%v err=%v", ok, p.Err())
		}
	})
}
