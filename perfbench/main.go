// Command perfbench is the repository benchmark. One process runs three
// phases against the runtime, each checking every output it produces:
//
//   - wordcount: a closed loop of Figure 6 word-count jobs, one at a time,
//     rotating over the four translated kernel compositions and the
//     Figure 3 source on the tree walk and on the VM;
//   - stream: a closed loop of long range streams from the in-process
//     remote server, over one pooled loopback connection;
//   - storm: an open loop of short range streams arriving on a seeded
//     Poisson schedule at a fixed rate, over at most two connections.
//
// The --workload flag names the phase that gets half of the measuring
// time; the other two phases get a quarter each, so every run reports
// every metric. With --trace 0 the run reports end-to-end metrics
// measured with all instrumentation off, with the phases interleaved in
// short slices. With --trace 1 each phase runs half untraced and half
// traced: the traced half turns on the program's telemetry and VM
// profiler, records spans around the benchmark's own calls into each
// layer, and reports per-layer metrics; the difference between the
// halves is the tracing overhead.
//
// Usage (from the repository root; run.sh builds and runs this):
//
//	bash perfbench/run.sh --workload wordcount --seed 1 --seconds 42 --trace 0
//
// The last line of standard output is the JSON result; the line before it
// holds each timing's tail and sample count, and the absent counters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"junicon/internal/interp"
	"junicon/internal/remote"
	"junicon/internal/telemetry"
	"junicon/internal/vm"
	"junicon/internal/wordcount"
)

var errOut io.Writer = os.Stderr

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

var phaseOrder = []string{"wordcount", "stream", "storm"}

// env is everything the phases share: the corpus and its reference
// total, the loaded interpreters, the server and the warmed dialers.
// Set-up checks its own outputs too: the two reference totals against
// each other, and every warm-up job and stream. checks and failed count
// them, so a wrong output fails the run instead of aborting it.
type env struct {
	lines        []string
	ref          float64 // the plain-Go total every job must match
	checks       int64
	failed       int64
	tree, vm     *interp.Interp
	loadMs       float64
	srv          *remote.Server
	addr         string
	streamDialer *remote.Dialer
	stormDialer  *remote.Dialer
}

// setup builds the env; tr, when set, records the interpreter loads.
func setup(seed int64, tr *tracer) (*env, error) {
	e := &env{}
	e.lines = wordcount.GenerateLines(corpusLines, corpusWords, seed)
	e.ref = plainTotal(e.lines)
	seq := wordcount.SequentialTotal(e.lines, wordcount.Light)
	e.check(approxEqual(seq, e.ref), "SequentialTotal %v, plain loop %v", seq, e.ref)
	t0 := time.Now()
	var err error
	if e.tree, err = wordcount.NewInterpreter(e.lines, wordcount.Light); err != nil {
		return nil, fmt.Errorf("load tree-walk interpreter: %w", err)
	}
	t1 := time.Now()
	if e.vm, err = wordcount.NewInterpreter(e.lines, wordcount.Light, interp.WithVM()); err != nil {
		return nil, fmt.Errorf("load VM interpreter: %w", err)
	}
	t2 := time.Now()
	tr.add(0, "setup", "NewInterpreter", "interp", 0, t0, t1)
	tr.add(0, "setup", "NewInterpreter", "vm", 0, t1, t2)
	e.loadMs = ms(t2.Sub(t0))
	for _, v := range wcVariants {
		got, err := runVariant(e, v, nil, 0, 0)
		e.check(err == nil && approxEqual(got, e.ref), "warm-up %s job: total %v, want %v (err %v)", v.name, got, e.ref, err)
	}
	if e.srv, e.addr, err = newServer(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	e.streamDialer = &remote.Dialer{}
	e.stormDialer = &remote.Dialer{StreamsPerConn: stormConnCap}
	e.warm(e.streamDialer, 1, remote.DefaultStreamsPerConn)
	e.warm(e.stormDialer, 2, stormConnCap)
	return e, nil
}

// check counts one set-up check, and reports it when it failed.
func (e *env) check(ok bool, format string, args ...any) {
	e.checks++
	if !ok {
		e.failed++
		fmt.Fprintf(errOut, "perfbench: setup: "+format+"\n", args...)
	}
}

func (e *env) close() {
	e.stormDialer.Close()
	e.streamDialer.Close()
	e.srv.Close()
}

// report collects the result line and the detail line.
type report struct {
	metrics   map[string]metric
	detail    map[string]any
	absent    map[string]bool
	attempted int64
	failed    int64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}, absent: map[string]bool{}}
}

// set records a metric; a value that could not be measured is absent.
func (r *report) set(name, unit string, v float64, ok bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		r.absent[name] = true
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// timing records a median metric with its tail and sample count.
func (r *report) timing(name, unit string, xs []float64) {
	r.set(name, unit, median(xs), len(xs) > 0)
	if len(xs) > 0 {
		r.detail[name] = summarize(xs)
	}
}

func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "phase that gets half the time: "+strings.Join(phaseOrder, ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 42, "measuring time of the run")
	traceFlag := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	slices, err := plan(*workload, time.Duration(*seconds)*time.Second)
	if err != nil || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(errOut, "perfbench: %v\n", errors.Join(err, errors.New("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := newReport()
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	var setups, loads []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = setup(*seed, tr); err != nil {
			fmt.Fprintf(errOut, "perfbench: setup: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, e.loadMs)
	}
	defer e.close()
	rep.count(e.checks, e.failed)

	rep.detail["workload"] = *workload
	rep.detail["seed"] = *seed
	rep.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	durs := phaseTime(slices)
	rep.detail["phase_seconds"] = durSeconds(durs)
	rep.detail["storm_rate_per_s"] = stormRate
	if *traceFlag == 1 {
		rep.set("interp.load_ms", "ms", median(loads), true)
		runTraced(e, *seed, durs, rep, tr, *workload)
	} else {
		rep.timing("setup_s", "s", setups)
		runUntraced(e, *seed, slices, rep)
		rep.set("rss_peak_mb", "MB", peakRSS(), true)
	}

	absent := make([]string, 0, len(rep.absent))
	for name := range rep.absent {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	rep.detail["absent"] = absent
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"detail": rep.detail}); err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	if err := out.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics}); err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// slice is one stretch of one phase.
type slice struct {
	phase string
	d     time.Duration
}

// sliceCycle is the length of one cycle of slices.
const sliceCycle = 6 * time.Second

// plan gives the named workload's phase half of total and the others a
// quarter each. The untraced run interleaves the phases in cycles of
// four slices (workload, other, workload, other), so a stretch of host
// noise spreads over every phase instead of landing on one.
func plan(workload string, total time.Duration) ([]slice, error) {
	if total <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var others []string
	for _, p := range phaseOrder {
		if p != workload {
			others = append(others, p)
		}
	}
	if len(others) == len(phaseOrder) {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	cycles := max(1, int(total/sliceCycle))
	u := total / time.Duration(4*cycles)
	var out []slice
	for c := 0; c < cycles; c++ {
		out = append(out, slice{workload, u}, slice{others[0], u}, slice{workload, u}, slice{others[1], u})
	}
	return out, nil
}

// phaseTime sums the slices of each phase.
func phaseTime(plan []slice) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range plan {
		out[s.phase] += s.d
	}
	return out
}

func durSeconds(durs map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for p, d := range durs {
		out[p] = d.Seconds()
	}
	return out
}

func runUntraced(e *env, seed int64, plan []slice, rep *report) {
	wc, st, sm := newWordcount(false), &streamResult{}, &stormResult{}
	for _, s := range plan {
		runtime.GC()
		switch s.phase {
		case "wordcount":
			wc.run(e, s.d, nil)
		case "stream":
			st.run(e, seed, s.d, nil)
		case "storm":
			sm.run(e, seed, s.d, nil)
		}
	}
	rep.count(wc.jobs, wc.failed)
	for _, v := range wcVariants {
		rep.timing("wc."+v.name+"_ms", "ms/job", wc.times[v.name])
	}
	rep.count(st.streams, st.failed)
	rep.timing("stream.values_per_s", "values/s", st.perSec)
	rep.timing("stream.next_us_p99", "us", st.nextP99)
	rep.detail["stream.next_us_all"] = map[string]any{
		"p50": st.nextAll.quantile(0.5) / 1e3, "p99": st.nextAll.quantile(0.99) / 1e3, "n": st.nextAll.n,
	}
	// The storm's latencies follow the host's CPU steal too closely to
	// gate on (see README.md); they are reported here and as per-layer
	// metrics of the traced run.
	rep.count(sm.streams, sm.failed)
	sm.detail(rep)
}

// peakRSS is the process's peak resident set in MB (VmHWM), or the Go
// runtime's obtained memory where /proc is unavailable.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// overheadPct compares a traced median with its untraced counterpart.
func overheadPct(untraced, traced float64) float64 { return (traced/untraced - 1) * 100 }

// setTrace turns the program's own instrumentation on or off: telemetry
// metrics and the VM profiler, zeroed on entry so the traced half reads
// only its own counts.
func setTrace(on bool) {
	if on {
		telemetry.ResetMetrics()
		vm.ResetProfile()
		telemetry.SetMetrics(true)
		vm.EnableProfiling()
		return
	}
	telemetry.SetMetrics(false)
	vm.DisableProfiling()
}
