package main

import (
	"fmt"
	"runtime"
	"time"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// runTraced runs each phase twice, untraced and then traced, for half of
// its time each, and reports per-layer metrics from the traced halves.
func runTraced(e *env, seed int64, durs map[string]time.Duration, rep *report, tr *tracer, workload string) {
	// wordcount: kernel, pipe/queue, pool, interpreter and VM.
	d := durs["wordcount"] / 2
	base, wc := newWordcount(false), newWordcount(true)
	runtime.GC()
	base.run(e, d, nil)
	runtime.GC()
	setTrace(true)
	wc.run(e, d, tr)
	c := readCounters()
	units, ops := profileUnits()
	setTrace(false)
	rep.count(base.jobs+wc.jobs, base.failed+wc.failed)
	jobs := float64(wc.jobs)
	perJob := func(name, counter, unit string, scale float64) {
		v, ok := c.int(counter)
		rep.set(name, unit, v*scale/jobs, ok)
	}
	perJob("core.resumes_per_job", "kernel.resumes", "count", 1)
	perJob("core.restarts_per_job", "kernel.restarts", "count", 1)
	perJob("pipe.values_per_job", "pipe.values", "count", 1)
	perJob("queue.put_blocked_us_per_job", "queue.put_blocked_ns", "us", 1e-3)
	perJob("queue.take_blocked_us_per_job", "queue.take_blocked_ns", "us", 1e-3)
	perJob("pool.tasks_per_job", "pool.tasks", "count", 1)
	quant := func(name, hist string, q, scale float64, unit string) {
		v, ok := c.quantile(hist, q)
		rep.set(name, unit, v*scale, ok)
	}
	quant("pipe.flush_size_p50", "pipe.flush_size", 0.5, 1, "count")
	quant("pool.task_wait_us_p50", "pool.task_wait_ns", 0.5, 1e-3, "us")
	quant("pool.task_wait_us_p99", "pool.task_wait_ns", 0.99, 1e-3, "us")
	evalgen, drain := map[string][]float64{}, map[string][]float64{}
	for _, s := range tr.spansOf("wordcount") {
		switch s.Name {
		case "EvalGen":
			evalgen[s.Layer] = append(evalgen[s.Layer], float64(s.End-s.Start)/1e3)
		case "Next*":
			drain[s.Layer] = append(drain[s.Layer], float64(s.End-s.Start)/1e6)
		}
	}
	rep.timing("interp.evalgen_us", "us", evalgen["interp"])
	rep.timing("interp.drain_ms", "ms", drain["interp"])
	rep.timing("vm.evalgen_us", "us", evalgen["vm"])
	rep.timing("vm.drain_ms", "ms", drain["vm"])
	rep.set("vm.ops_per_job", "count", float64(ops)/float64(wc.vmJobs), wc.vmJobs > 0 && ops > 0)
	rep.set("vm.profile_units", "count", float64(units), true)
	rep.timing("streams.mapreduce_ms", "ms", wc.times[nativeVariant.name])
	var sumBase, sumTraced float64
	for _, v := range wcVariants {
		sumBase += median(base.times[v.name])
		sumTraced += median(wc.times[v.name])
	}
	rep.set("trace.overhead_pct.wordcount", "%", overheadPct(sumBase, sumTraced), true)
	selfPct(tr, rep, "wordcount", "bench", "core", "pipe", "pool", "interp", "vm", "streams")

	// stream: wire encode/decode, batching, session flushes and credit.
	d = durs["stream"] / 2
	sBase, st := &streamResult{}, &streamResult{}
	runtime.GC()
	sBase.run(e, seed, d, nil)
	runtime.GC()
	setTrace(true)
	st.run(e, seed, d, tr)
	c = readCounters()
	setTrace(false)
	rep.count(sBase.streams+st.streams, sBase.failed+st.failed)
	values, vok := c.int("remote.client.values")
	perValue := func(name, counter, unit string, scale float64) {
		v, ok := c.int(counter)
		rep.set(name, unit, v*scale/values, ok && vok && values > 0)
	}
	valuesPer := func(name, counter string) {
		v, ok := c.int(counter)
		rep.set(name, "count", values/v, ok && vok && v > 0)
	}
	valuesPer("remote.values_per_frame", "remote.frames_tx")
	perValue("remote.bytes_per_value", "remote.bytes_tx", "B", 1)
	perValue("remote.mux.flushes_per_kvalue", "remote.mux.flushes", "count", 1e3)
	quant("remote.mux.flush_bytes_p50", "remote.mux.flush_bytes", 0.5, 1, "B")
	quant("remote.server.flush_size_p50", "remote.server.flush_size", 0.5, 1, "count")
	perValue("remote.credits_per_kvalue", "remote.client.credits_sent", "count", 1e3)
	perValue("remote.server.credit_stalls_per_kvalue", "remote.server.credit_stalls", "count", 1e3)
	perValue("remote.server.credit_stall_us_per_kvalue", "remote.server.credit_stall_ns", "us", 1)
	// Throughput: the slowdown is the untraced rate over the traced one.
	rep.set("trace.overhead_pct.stream", "%", overheadPct(median(st.perSec), median(sBase.perSec)), true)
	enc, dec, bad := wireTiming()
	rep.set("wire.encode_ns_per_value", "ns", enc, true)
	rep.set("wire.decode_ns_per_value", "ns", dec, true)
	rep.count(int64(len(batchSizes)), bad)
	selfPct(tr, rep, "stream", "bench", "remote")

	// storm: per-stream setup and teardown.
	d = durs["storm"] / 2
	mBase, sm := &stormResult{}, &stormResult{}
	runtime.GC()
	mBase.run(e, seed, d, nil)
	runtime.GC()
	setTrace(true)
	sm.run(e, seed, d, tr)
	c = readCounters()
	setTrace(false)
	rep.count(mBase.streams+sm.streams, mBase.failed+sm.failed)
	// The storm's own latencies come from the untraced half.
	rep.timing("storm.first_ms_p50", "ms", mBase.firstP50)
	rep.timing("storm.first_ms_p99", "ms", mBase.firstP99)
	rep.timing("storm.done_ms_p50", "ms", mBase.doneP50)
	rep.timing("remote.open_us_p50", "us", sm.open)
	rep.set("remote.open_us_p99", "us", quantile(sm.open, 0.99), true)
	rep.timing("remote.first_next_us_p50", "us", sm.firstNext)
	rep.set("remote.first_next_us_p99", "us", quantile(sm.firstNext, 0.99), true)
	rep.timing("remote.stop_us_p50", "us", sm.stop)
	rep.set("remote.stop_us_p99", "us", quantile(sm.stop, 0.99), true)
	perStream := func(name, counter string) {
		v, ok := c.int(counter)
		rep.set(name, "count", v/float64(sm.streams), ok && sm.streams > 0)
	}
	perStream("remote.frames_per_stream", "remote.frames_tx")
	perStream("remote.mux.flushes_per_stream", "remote.mux.flushes")
	rep.set("remote.server.active_streams_max", "count", float64(sm.activeMax), true)
	rep.set("remote.mux.sessions_max", "count", float64(sm.sessionsMax), true)
	rep.set("storm.late_ms_p99", "ms", quantile(sm.late, 0.99), true)
	rep.set("trace.overhead_pct.storm", "%", overheadPct(median(mBase.doneP50), median(sm.doneP50)), true)
	selfPct(tr, rep, "storm", "bench", "remote")

	path := spanPath(workload, seed)
	if err := tr.write(path); err != nil {
		fmt.Fprintf(errOut, "perfbench: writing spans: %v\n", err)
	} else {
		rep.detail["spans"] = path
	}
}

// selfPct reports each layer's self time in phase as a share of the
// phase's root spans.
func selfPct(tr *tracer, rep *report, phase string, layers ...string) {
	self, root := tr.selfTimes(phase)
	for _, l := range layers {
		rep.set(phase+".self_pct."+l, "%", self[l]/root*100, root > 0)
	}
}

// wireTiming times wire.Marshal plus wire.AppendBatch (the server's
// per-value encode) and wire.UnmarshalBatchInto (the client's decode) on
// the stream phase's batch shapes. It returns ns per value for each,
// averaged over the shapes, and the number of shapes whose decode did not
// round-trip.
func wireTiming() (encNs, decNs float64, bad int64) {
	const valuesPerShape = 256_000
	for _, b := range batchSizes {
		batches := valuesPerShape / b
		items := make([][]byte, b)
		encode := func(j int, dst []byte) []byte {
			for i := range items {
				items[i], _ = wire.Marshal(value.NewInt(int64(j*b%streamMaxLen + i + 1)))
			}
			return wire.AppendBatch(dst[:0], items)
		}
		var buf []byte
		t0 := time.Now()
		for j := 0; j < batches; j++ {
			buf = encode(j, buf)
		}
		encT := time.Since(t0)

		// Decode a ring of distinct encoded batches, checked once before
		// the timed loop.
		ring := make([][]byte, 64)
		for j := range ring {
			ring[j] = encode(j, nil)
		}
		var vals []value.V
		for j, data := range ring {
			var err error
			vals, err = wire.UnmarshalBatchInto(vals[:0], data, wire.DefaultLimits)
			if err != nil || !isRun(vals, j*b%streamMaxLen+1, b) {
				bad++
				break
			}
		}
		t0 = time.Now()
		for j := 0; j < batches; j++ {
			vals, _ = wire.UnmarshalBatchInto(vals[:0], ring[j%len(ring)], wire.DefaultLimits)
		}
		decT := time.Since(t0)
		n := float64(batches * b)
		encNs += float64(encT) / n / float64(len(batchSizes))
		decNs += float64(decT) / n / float64(len(batchSizes))
	}
	return encNs, decNs, bad
}

// isRun reports whether vals are the n integers from lo upward.
func isRun(vals []value.V, lo, n int) bool {
	if len(vals) != n {
		return false
	}
	for i, v := range vals {
		x, ok := value.ToInteger(v)
		if !ok {
			return false
		}
		if got, _ := x.Int64(); got != int64(lo+i) {
			return false
		}
	}
	return true
}
