// VM profiler: per-opcode and per-procedure hit counters plus
// suspend-to-resume latency histograms, gated exactly like telemetry —
// one atomic load decides per Next call, and an unprofiled execution
// carries a nil *CodeProfile whose per-instruction check is a plain nil
// test on a local. The data answers the two questions a slow compiled
// program raises: where do the instructions go (which procedure, which
// opcode), and how long do generators sit suspended between a yield and
// the resume that follows (the scheduling half of §5B's suspend/resume
// cost, invisible to instruction counts).
package vm

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"junicon/internal/compile"
	"junicon/internal/telemetry"
)

// profOn gates profiling process-wide. Frame.Next loads it once per call.
var profOn atomic.Bool

// EnableProfiling turns the VM profiler on process-wide.
func EnableProfiling() { profOn.Store(true) }

// DisableProfiling stops collecting; accumulated profiles remain readable.
func DisableProfiling() { profOn.Store(false) }

// ProfilingOn reports whether the profiler is collecting.
func ProfilingOn() bool { return profOn.Load() }

// CodeProfile accumulates execution counts for one compiled unit. Counters
// are atomics because frames of the same Machine may run on many
// goroutines (pooled data-parallel execution).
type CodeProfile struct {
	name   string
	calls  atomic.Int64 // frame activations (begin)
	yields atomic.Int64 // values produced
	ops    [compile.NumOps]atomic.Int64
	resume telemetry.Histogram // suspend → resume latency, ns
}

// profiles is the process-wide registry of per-unit profiles, keyed by
// unit name: every Machine running a unit of the same name shares one
// row, so a long-lived process that builds machines repeatedly keeps a
// bounded registry, and a rerun reads the same row it reset.
var profiles = struct {
	sync.Mutex
	byName map[string]*CodeProfile
}{byName: make(map[string]*CodeProfile)}

// profile returns the Machine's profile, looking up (or registering) its
// unit's row on first use. Fast path: one atomic pointer load.
func (m *Machine) profile() *CodeProfile {
	if p := m.prof.Load(); p != nil {
		return p
	}
	name := m.code.Name
	if name == "" {
		name = "<expr>"
	}
	profiles.Lock()
	p := profiles.byName[name]
	if p == nil {
		p = &CodeProfile{name: name}
		profiles.byName[name] = p
	}
	profiles.Unlock()
	m.prof.Store(p)
	return p
}

// ResetProfile zeroes every accumulated profile in place — registered
// machines keep their profile pointers, so collection continues cleanly.
// Test hygiene and measurement-window delimiting, like ResetMetrics.
func ResetProfile() {
	profiles.Lock()
	defer profiles.Unlock()
	for _, p := range profiles.byName {
		p.calls.Store(0)
		p.yields.Store(0)
		for i := range p.ops {
			p.ops[i].Store(0)
		}
		p.resume.Reset()
	}
}

// OpCount is one opcode's share of a procedure's executed instructions.
type OpCount struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
}

// ProcProfile is one compiled unit's profile snapshot, ops sorted by
// descending count.
type ProcProfile struct {
	Name      string                      `json:"name"`
	Calls     int64                       `json:"calls"`
	Yields    int64                       `json:"yields"`
	Total     int64                       `json:"total_ops"`
	Ops       []OpCount                   `json:"ops,omitempty"`
	ResumeLat telemetry.HistogramSnapshot `json:"resume_latency_ns"`
}

// SnapshotProfile returns every unit's accumulated profile, busiest first
// (ties by name).
func SnapshotProfile() []ProcProfile {
	profiles.Lock()
	list := make([]*CodeProfile, 0, len(profiles.byName))
	for _, p := range profiles.byName {
		list = append(list, p)
	}
	profiles.Unlock()
	out := make([]ProcProfile, 0, len(list))
	for _, p := range list {
		pp := ProcProfile{
			Name:      p.name,
			Calls:     p.calls.Load(),
			Yields:    p.yields.Load(),
			ResumeLat: p.resume.Snapshot(),
		}
		for op := 0; op < compile.NumOps; op++ {
			if n := p.ops[op].Load(); n > 0 {
				pp.Ops = append(pp.Ops, OpCount{Op: compile.Op(op).Name(), Count: n})
				pp.Total += n
			}
		}
		sort.Slice(pp.Ops, func(i, j int) bool { return pp.Ops[i].Count > pp.Ops[j].Count })
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteText renders the profile as the REPL's :prof table.
func WriteText(w io.Writer) {
	snap := SnapshotProfile()
	if len(snap) == 0 {
		fmt.Fprintln(w, "vm profile: no data (is profiling enabled and VM execution active?)")
		return
	}
	for _, pp := range snap {
		fmt.Fprintf(w, "%s  calls=%d yields=%d ops=%d", pp.Name, pp.Calls, pp.Yields, pp.Total)
		if r := pp.ResumeLat; r.Count > 0 {
			fmt.Fprintf(w, "  resume p50=%.0fns p99=%.0fns p999=%.0fns max=%dns",
				r.P50, r.P99, r.P999, r.Max)
		}
		fmt.Fprintln(w)
		for i, oc := range pp.Ops {
			if i >= 10 {
				fmt.Fprintf(w, "    … %d more opcodes\n", len(pp.Ops)-i)
				break
			}
			pct := 0.0
			if pp.Total > 0 {
				pct = 100 * float64(oc.Count) / float64(pp.Total)
			}
			fmt.Fprintf(w, "    %-14s %12d  %5.1f%%\n", oc.Op, oc.Count, pct)
		}
	}
}

// noteResume records the latency between the frame's last suspension and
// this resume. Called only when profiling was on at Next entry.
func (f *Frame) noteResume(p *CodeProfile) {
	if f.suspendedAt != 0 {
		p.resume.Observe(time.Now().UnixNano() - f.suspendedAt)
		f.suspendedAt = 0
	}
}
