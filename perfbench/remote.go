package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/core"
	"junicon/internal/remote"
	"junicon/internal/value"
)

// The remote phases drive the in-process server over loopback through
// pooled Dialers: stream, a closed loop of long streams over one
// connection, and storm, an open loop of short streams.

const (
	streamClients = 32   // concurrent long streams in the stream phase
	streamMinLen  = 2000 // stream lengths are uniform in [min, max]
	streamMaxLen  = 6000
	streamBuffer  = 64 // credit window of every stream

	// stormRate is the storm's arrival rate in streams/s: about half of
	// what one closed-loop client sustains on these streams on a 2-CPU
	// host, so the server keeps up and the backlog stays flat.
	stormRate     = 4000
	stormMinLen   = 8
	stormMaxLen   = 64
	stormStopPct  = 25 // share of storm streams that Stop early
	stormConnCap  = 64 // streams per pooled session; two are warmed
	stormDrainMax = 30 * time.Second

	window = 500 * time.Millisecond // percentile windows
)

// batchSizes are the VALUES batch capabilities streams mix: the default
// 64, 8, and 1 (one value per frame).
var batchSizes = [3]int{remote.DefaultBatch, 8, 1}

// newServer starts the in-process server with the range generator
// junicond serves.
func newServer() (*remote.Server, string, error) {
	srv := remote.NewServer()
	srv.Register("range", func(args []value.V) (core.Gen, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("range: want [lo, hi], got %d args", len(args))
		}
		lo, ok1 := value.ToInteger(args[0])
		hi, ok2 := value.ToInteger(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("range: integer arguments required")
		}
		l, lok := lo.Int64()
		h, hok := hi.Int64()
		if !lok || !hok {
			return nil, fmt.Errorf("range: arguments out of range")
		}
		return core.IntRange(l, h), nil
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr.String(), nil
}

func openRange(d *remote.Dialer, addr string, n, batch int) *remote.RemotePipe {
	return d.Open(addr, "range", []value.V{value.NewInt(1), value.NewInt(int64(n))},
		remote.Config{Buffer: streamBuffer, Batch: batch})
}

// checkValue reports whether v is the integer want.
func checkValue(v value.V, want int) error {
	x, ok := value.ToInteger(value.Deref(v))
	if !ok {
		return fmt.Errorf("value %d: not an integer", want)
	}
	if got, _ := x.Int64(); got != int64(want) {
		return fmt.Errorf("value %d: got %d", want, got)
	}
	return nil
}

// expectRun takes the values lo..hi from p, checking each; with eos it
// then checks that the stream ends.
func expectRun(p *remote.RemotePipe, lo, hi int, eos bool) error {
	for k := lo; k <= hi; k++ {
		v, ok := p.Next()
		if !ok {
			return fmt.Errorf("%d values, want %d", k-1, hi)
		}
		if err := checkValue(v, k); err != nil {
			return err
		}
	}
	if eos {
		if _, ok := p.Next(); ok {
			return fmt.Errorf("value past %d", hi)
		}
	}
	return nil
}

// warm opens streams on every batch size through d until it holds
// sessions sessions, so no dial lands inside a measurement. The streams
// are longer than the credit window, so each holds its slot until it is
// drained. Each stream and the session count are set-up checks.
func (e *env) warm(d *remote.Dialer, sessions, perConn int) {
	const n = 4 * streamBuffer
	var ps []*remote.RemotePipe
	for i := 0; i < (sessions-1)*perConn+1 || i < len(batchSizes); i++ {
		p := openRange(d, e.addr, n, batchSizes[i%len(batchSizes)])
		p.StartEager()
		ps = append(ps, p)
	}
	for _, p := range ps {
		err := expectRun(p, 1, n, true)
		if err == nil {
			err = p.Err()
		}
		p.Stop()
		e.check(err == nil, "warm-up stream: %v", err)
	}
	got := d.Sessions()
	e.check(got == sessions, "warm-up: %d sessions, want %d", got, sessions)
}

// windows accumulates per-window counts and wait histograms.
type windows struct {
	mu     sync.Mutex
	values []int64
	waits  []*hist
}

func newWindows(d time.Duration) *windows {
	n := int(d/window) + 1
	w := &windows{values: make([]int64, n), waits: make([]*hist, n)}
	for i := range w.waits {
		w.waits[i] = new(hist)
	}
	return w
}

func (w *windows) add(i int, values int64, h *hist) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.values[i] += values
	w.waits[i].merge(h)
}

// streamResult accumulates the stream phase over its slices.
type streamResult struct {
	slices          int
	streams, failed int64
	perSec          []float64 // values/s per full window
	nextP99         []float64 // per-Next wait p99 per full window, µs
	nextAll         hist
}

// run runs streamClients closed-loop clients of long streams for d. A
// client cut by the deadline stops its stream early; the values it took
// are still checked.
func (r *streamResult) run(e *env, seed int64, d time.Duration, tr *tracer) {
	slice := int64(r.slices)
	r.slices++
	ws := newWindows(d)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var streams, failed atomic.Int64
	for c := 0; c < streamClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + slice*1_009 + int64(c)))
			perm := rng.Perm(len(batchSizes))
			local := new(hist)
			var localVals int64
			win := 0
			for s := 0; time.Now().Before(deadline); s++ {
				n := streamMinLen + rng.Intn(streamMaxLen-streamMinLen+1)
				batch := batchSizes[perm[s%len(perm)]]
				id := slice<<32 | int64(c)<<16 | int64(s)
				root := tr.reserve()
				t0 := time.Now()
				p := openRange(e.streamDialer, e.addr, n, batch)
				t1 := time.Now()
				tr.add(root, "stream", "Dialer.Open", "remote", id, t0, t1)
				k, cut := 0, false
				var bad error
				var firstEnd time.Time
				for {
					a := time.Now()
					if !a.Before(deadline) {
						cut = true
						break
					}
					v, ok := p.Next()
					b := time.Now()
					if k == 0 {
						firstEnd = b
						tr.add(root, "stream", "Next(first)", "remote", id, a, b)
					}
					if !ok {
						break
					}
					k++
					if bad == nil {
						bad = checkValue(v, k)
					}
					if i := min(int(b.Sub(start)/window), len(ws.values)-1); i != win {
						ws.add(win, localVals, local)
						*local, localVals, win = hist{}, 0, i
					}
					local.observe(b.Sub(a).Nanoseconds())
					localVals++
				}
				t2 := time.Now()
				if !firstEnd.IsZero() && t2.After(firstEnd) {
					tr.add(root, "stream", "Next*", "remote", id, firstEnd, t2)
				}
				p.Stop()
				t3 := time.Now()
				tr.add(root, "stream", "Stop", "remote", id, t2, t3)
				tr.fill(root, "stream", "stream", "bench", id, t0, t3)
				if bad == nil {
					bad = p.Err()
				}
				if bad == nil && !cut && k != n {
					bad = fmt.Errorf("%d values, want %d", k, n)
				}
				streams.Add(1)
				if bad != nil {
					failed.Add(1)
					fmt.Fprintf(errOut, "perfbench: stream %d (n=%d batch=%d): %v\n", id, n, batch, bad)
				}
			}
			ws.add(win, localVals, local)
		}(c)
	}
	wg.Wait()
	r.streams += streams.Load()
	r.failed += failed.Load()
	for i := 0; i < int(d/window); i++ { // windows wholly inside the slice
		r.perSec = append(r.perSec, float64(ws.values[i])/window.Seconds())
		r.nextP99 = append(r.nextP99, ws.waits[i].quantile(0.99)/1e3)
		r.nextAll.merge(ws.waits[i])
	}
}

// arrival is one storm stream: due offset, length, batch and the number
// of values after which it stops (0: drain to EOS).
type arrival struct {
	at       time.Duration
	n, batch int
	stop     int
}

// stormSchedule draws Poisson arrivals at stormRate for d, with seeded
// lengths, batch sizes and stop points.
func stormSchedule(seed int64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / stormRate * float64(time.Second))
		if at >= d {
			return out
		}
		a := arrival{at: at, n: stormMinLen + rng.Intn(stormMaxLen-stormMinLen+1)}
		a.batch = batchSizes[rng.Intn(len(batchSizes))]
		if rng.Intn(100) < stormStopPct {
			a.stop = 1 + rng.Intn(a.n-1)
		}
		out = append(out, a)
	}
}

// stormResult accumulates the storm phase over its slices.
type stormResult struct {
	slices          int
	streams, failed int64
	late            []float64 // generator lateness (ms)
	open, firstNext []float64 // Dialer.Open and first Next calls (µs)
	stop            []float64 // Stop calls (µs)
	activeMax       int
	sessionsMax     int
	firstP50        []float64 // due → first value (ms), per full window
	firstP99        []float64
	doneP50         []float64 // due → Stop returned (ms), per full window
}

// run draws the slice's schedule, launches its streams at their due
// times from one generator goroutine and waits for all of them.
func (r *stormResult) run(e *env, seed int64, d time.Duration, tr *tracer) {
	slice := int64(r.slices)
	r.slices++
	sched := stormSchedule(seed*7_919+slice*104_729+17, d)
	n := len(sched)
	first, done, late := make([]float64, n), make([]float64, n), make([]float64, n)
	open, firstNext, stop := make([]float64, n), make([]float64, n), make([]float64, n)
	var wg sync.WaitGroup
	var failed atomic.Int64
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		sleepUntil(due)
		late[i] = ms(time.Since(due))
		r.activeMax = max(r.activeMax, e.srv.ActiveStreams())
		r.sessionsMax = max(r.sessionsMax, e.stormDialer.Sessions())
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			root := tr.reserve()
			t0 := time.Now()
			p := openRange(e.stormDialer, e.addr, a.n, a.batch)
			t1 := time.Now()
			v, ok := p.Next()
			t2 := time.Now()
			err := fmt.Errorf("no first value")
			if ok {
				err = checkValue(v, 1)
			}
			if err == nil {
				if a.stop > 0 {
					err = expectRun(p, 2, a.stop, false)
				} else {
					err = expectRun(p, 2, a.n, true)
				}
			}
			t3 := time.Now()
			p.Stop()
			t4 := time.Now()
			if err == nil {
				err = p.Err()
			}
			open[i], firstNext[i], stop[i] = us(t1.Sub(t0)), us(t2.Sub(t1)), us(t4.Sub(t3))
			first[i], done[i] = ms(t2.Sub(due)), ms(t4.Sub(due))
			if tr != nil {
				id := slice<<32 | int64(i)
				tr.add(root, "storm", "Dialer.Open", "remote", id, t0, t1)
				tr.add(root, "storm", "Next(first)", "remote", id, t1, t2)
				tr.add(root, "storm", "Next*", "remote", id, t2, t3)
				tr.add(root, "storm", "Stop", "remote", id, t3, t4)
				// The root starts at the due time: its self time is the
				// wait before the benchmark's first call into the layer.
				tr.fill(root, "storm", "stream", "bench", id, due, t4)
			}
			if err != nil {
				failed.Add(1)
				fmt.Fprintf(errOut, "perfbench: storm stream %d (n=%d batch=%d stop=%d): %v\n", i, a.n, a.batch, a.stop, err)
			}
		}(i, a, due)
	}
	if !waitTimeout(&wg, stormDrainMax) {
		// A stream that never finished fails the run; closing the dialer
		// fails its sessions so the stuck goroutines return.
		fmt.Fprintf(errOut, "perfbench: storm streams still open %v after the last arrival\n", stormDrainMax)
		e.stormDialer.Close()
		wg.Wait()
	}
	r.streams += int64(n)
	r.failed += failed.Load()
	r.late = append(r.late, late...)
	r.open = append(r.open, open...)
	r.firstNext = append(r.firstNext, firstNext...)
	r.stop = append(r.stop, stop...)
	byWin := make([][]int, int(d/window)) // windows wholly inside the slice
	for i, a := range sched {
		if w := int(a.at / window); w < len(byWin) {
			byWin[w] = append(byWin[w], i)
		}
	}
	for _, idx := range byWin {
		if len(idx) == 0 {
			continue
		}
		f, dn := make([]float64, len(idx)), make([]float64, len(idx))
		for j, i := range idx {
			f[j], dn[j] = first[i], done[i]
		}
		r.firstP50 = append(r.firstP50, quantile(f, 0.5))
		r.firstP99 = append(r.firstP99, quantile(f, 0.99))
		r.doneP50 = append(r.doneP50, quantile(dn, 0.5))
	}
}

// detail reports the storm's latencies, medians over windows with
// their tails, and the validity figures, in the detail line.
func (r *stormResult) detail(rep *report) {
	for name, xs := range map[string][]float64{
		"storm.first_ms_p50": r.firstP50, "storm.first_ms_p99": r.firstP99, "storm.done_ms_p50": r.doneP50,
	} {
		if len(xs) > 0 {
			rep.detail[name] = summarize(xs)
		}
	}
	rep.detail["storm.late_ms"] = summarize(r.late)
	rep.detail["storm.sessions_max"] = r.sessionsMax
	rep.detail["storm.active_streams_max"] = r.activeMax
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
