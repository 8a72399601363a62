package main

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"time"

	"junicon/internal/interp"
	"junicon/internal/value"
	"junicon/internal/vm"
	"junicon/internal/wordcount"
)

// The wordcount phase: a closed loop running one Figure 6 job at a time,
// rotating round-robin over the variants so drift hits each alike.

const (
	corpusLines = 500
	corpusWords = 10
)

// variant is one word-count job kind. The translated kernel compositions
// run through call; the interpreted ones evaluate the Figure 3 top-level
// expression on a loaded interpreter through in.
type variant struct {
	name  string // metric stem: wc.<name>_ms
	layer string // layer the job's time belongs to
	call  func(lines []string) float64
	in    func(e *env) *interp.Interp
}

var wcVariants = []variant{
	{name: "seq", layer: "core", call: func(l []string) float64 {
		return wordcount.JuniconSequential(l, wordcount.Light, wordcount.EmbeddedConfig{})
	}},
	{name: "pipeline", layer: "pipe", call: func(l []string) float64 {
		return wordcount.JuniconPipeline(l, wordcount.Light, wordcount.EmbeddedConfig{})
	}},
	{name: "dataparallel", layer: "pool", call: func(l []string) float64 {
		return wordcount.JuniconDataParallel(l, wordcount.Light, wordcount.EmbeddedConfig{})
	}},
	{name: "mapreduce", layer: "pool", call: func(l []string) float64 {
		return wordcount.JuniconMapReduce(l, wordcount.Light, wordcount.EmbeddedConfig{})
	}},
	{name: "interp", layer: "interp", in: func(e *env) *interp.Interp { return e.tree }},
	{name: "vm", layer: "vm", in: func(e *env) *interp.Interp { return e.vm }},
}

// nativeVariant is the plain Go map-reduce over internal/streams, the
// Figure 6 normaliser; it runs in the traced rotation only.
var nativeVariant = variant{name: "native_mapreduce", layer: "streams", call: func(l []string) float64 {
	return wordcount.NativeMapReduce(l, wordcount.Light, wordcount.NativeConfig{})
}}

// plainTotal is the reference word-count written without the package
// under test: split on whitespace, parse base 36, sum square roots.
func plainTotal(lines []string) float64 {
	total := 0.0
	for _, line := range lines {
		for _, w := range strings.Fields(line) {
			var f float64
			if n, err := strconv.ParseInt(w, 36, 64); err == nil {
				f = float64(n)
			} else if b, ok := new(big.Int).SetString(strings.ToLower(w), 36); ok {
				f, _ = new(big.Float).SetInt(b).Float64()
			} else {
				continue
			}
			total += math.Sqrt(math.Abs(f))
		}
	}
	return total
}

// approxEqual is the word-count tests' tolerance: 1e-9 relative.
func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// runVariant runs one job of v, recording its calls as children of root.
func runVariant(e *env, v variant, tr *tracer, root int32, key int64) (float64, error) {
	if v.call == nil {
		return interpJob(v.in(e), tr, root, v.layer, key)
	}
	t0 := time.Now()
	got := v.call(e.lines)
	tr.add(root, "wordcount", v.name, v.layer, key, t0, time.Now())
	return got, nil
}

// interpJob evaluates the Figure 3 sequential expression on in and drains it,
// recording the EvalGen and drain calls as child spans of parent.
func interpJob(in *interp.Interp, tr *tracer, parent int32, layer string, key int64) (float64, error) {
	t0 := time.Now()
	g, err := in.EvalGen(wordcount.SequentialExpr)
	t1 := time.Now()
	tr.add(parent, "wordcount", "EvalGen", layer, key, t0, t1)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for {
		v, ok := g.Next()
		if !ok {
			break
		}
		if r, isReal := value.ToReal(value.Deref(v)); isReal {
			total += float64(r)
		}
	}
	tr.add(parent, "wordcount", "Next*", layer, key, t1, time.Now())
	return total, nil
}

// wcResult accumulates the wordcount phase over its slices.
type wcResult struct {
	vs           []variant
	next         int // rotation position, carried across slices
	jobs, failed int64
	times        map[string][]float64 // variant → job ms
	vmJobs       int64
}

// newWordcount rotates over the Figure 6 variants; a traced run also
// rotates the native baseline in.
func newWordcount(traced bool) *wcResult {
	vs := wcVariants
	if traced {
		vs = append(append([]variant(nil), wcVariants...), nativeVariant)
	}
	return &wcResult{vs: vs, times: map[string][]float64{}}
}

// run runs jobs until d has passed.
func (r *wcResult) run(e *env, d time.Duration, tr *tracer) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		i := r.next
		r.next++
		v := r.vs[i%len(r.vs)]
		root := tr.reserve()
		t0 := time.Now()
		got, err := runVariant(e, v, tr, root, int64(i))
		t1 := time.Now()
		tr.fill(root, "wordcount", "job:"+v.name, "bench", int64(i), t0, t1)
		r.jobs++
		if v.name == "vm" {
			r.vmJobs++
		}
		if err != nil || !approxEqual(got, e.ref) {
			r.failed++
			fmt.Fprintf(errOut, "perfbench: wordcount %s job %d: total %v, want %v (err %v)\n", v.name, i, got, e.ref, err)
			continue
		}
		r.times[v.name] = append(r.times[v.name], ms(t1.Sub(t0)))
	}
}

// profileUnits counts the VM profiler's registered units and their ops.
func profileUnits() (units int, ops int64) {
	for _, p := range vm.SnapshotProfile() {
		units++
		ops += p.Total
	}
	return units, ops
}
