package remote

// Tests for the client's credit cadence: a grant is due once the
// uncredited count reaches the largest of the batch, half the window and
// 1. Grants coalesce, but the §3B bound — at most Buffer values produced
// and not yet consumed — must hold at every yield, and no stream may
// stall waiting on a grant its consumer still owes.

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"junicon/internal/core"
	"junicon/internal/value"
)

// TestCreditCadenceHoldsBound serves every batch × buffer pair over one
// pooled session from a generator that checks the §3B bound each time it
// yields, against a consumed count the test keeps itself. The consumer
// counts each take before calling Next: a value's grant leaves inside the
// Next that takes it, so the count never lags a credit the server could
// already be spending.
func TestCreditCadenceHoldsBound(t *testing.T) {
	const n = 5*64 + 7
	type account struct{ consumed, produced, over atomic.Int64 }
	accounts := make(map[string]*account)
	batches := []int{1, 8, 64}
	buffers := []int{1, 2, 3, 64}
	_, addr := startServer(t, func(s *Server) {
		for _, batch := range batches {
			for _, buffer := range buffers {
				name := fmt.Sprintf("bound/%d/%d", batch, buffer)
				a := &account{}
				accounts[name] = a
				s.Register(name, func([]value.V) (core.Gen, error) {
					return core.NewGen(func(yield func(value.V) bool) {
						for i := int64(1); i <= n; i++ {
							if a.produced.Add(1)-a.consumed.Load() > int64(buffer) {
								a.over.Add(1)
							}
							if !yield(value.NewInt(i)) {
								return
							}
						}
					}), nil
				})
			}
		}
	})
	d := &Dialer{}
	defer d.Close()
	for _, batch := range batches {
		for _, buffer := range buffers {
			name := fmt.Sprintf("bound/%d/%d", batch, buffer)
			t.Run(fmt.Sprintf("batch=%d/buffer=%d", batch, buffer), func(t *testing.T) {
				a := accounts[name]
				cfg := testConfig()
				cfg.Batch = batch
				cfg.Buffer = buffer
				p := d.Open(addr, name, nil, cfg)
				defer p.Stop()
				var got []int64
				within(t, 10*time.Second, "drain", func() {
					for {
						a.consumed.Add(1)
						v, ok := p.Next()
						if !ok {
							return
						}
						i, _ := value.ToInteger(v)
						k, _ := i.Int64()
						got = append(got, k)
					}
				})
				assertInts(t, got, wantRange(1, n))
				if err := p.Err(); err != nil {
					t.Fatalf("stream error: %v", err)
				}
				if over := a.over.Load(); over != 0 {
					t.Fatalf("%d yields ran more than Buffer=%d values ahead of the consumer", over, buffer)
				}
			})
		}
	}
	if got := d.Sessions(); got != 1 {
		t.Fatalf("dialer sessions = %d, want 1", got)
	}
}

// TestUnbatchedCreditsPerHalfWindow counts the CREDIT frames a Batch-1
// stream sends, on a peer that relays every frame to a real server over a
// net.Pipe. With Buffer 64, draining 640 values takes one grant per 32
// values — 20 frames — where a grant per value would take 640.
func TestUnbatchedCreditsPerHalfWindow(t *testing.T) {
	const values, buffer = 640, 64
	for _, mux := range []bool{false, true} {
		t.Run(fmt.Sprintf("mux=%v", mux), func(t *testing.T) {
			srv, _ := startServer(t, nil)
			var credits atomic.Int64
			addr := fakeServer(t, func(conn net.Conn) {
				defer conn.Close()
				peer, serve := net.Pipe()
				defer peer.Close()
				go srv.handleConn(serve)
				go io.Copy(conn, peer)
				// Relay client frames one by one; a session's handshake is
				// classic-framed, everything after it mux-framed.
				fr := newFrameReader(conn, 0)
				for first := true; ; first = false {
					var typ byte
					var sid uint32
					var payload []byte
					var err error
					if mux && !first {
						typ, sid, payload, err = fr.readMux()
					} else {
						typ, payload, err = fr.read()
					}
					if err != nil {
						return
					}
					if typ == frameCredit {
						credits.Add(1)
					}
					if mux && !first {
						_, err = peer.Write(appendMuxFrame(nil, typ, sid, payload))
					} else {
						err = writeFrame(peer, typ, payload)
					}
					if err != nil {
						return
					}
				}
			})
			cfg := testConfig()
			cfg.Batch = 1
			cfg.Buffer = buffer
			args := []value.V{value.NewInt(1), value.NewInt(values)}
			var p *RemotePipe
			if mux {
				d := &Dialer{}
				defer d.Close()
				p = d.Open(addr, "range", args, cfg)
			} else {
				p = Open(addr, "range", args, cfg)
			}
			defer p.Stop()
			within(t, 10*time.Second, "drain", func() {
				assertInts(t, drainInts(t, p, values+1), wantRange(1, values))
			})
			if err := p.Err(); err != nil {
				t.Fatalf("stream error: %v", err)
			}
			// The server produced every value, so at least the credits
			// beyond the opening window reached it; at most one grant per
			// half window left the client.
			got := credits.Load()
			if lo, hi := int64((values-buffer)/(buffer/2)), int64(values/(buffer/2)+1); got < lo || got > hi {
				t.Fatalf("%d CREDIT frames for %d values at Buffer %d, want %d..%d", got, values, buffer, lo, hi)
			}
		})
	}
}
