package vm_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"junicon/internal/vm"
)

// runProfiled drives a compiled program with profiling on and returns the
// snapshot, resetting profiler state around the run.
func runProfiled(t *testing.T, program, expr string, n int) []vm.ProcProfile {
	t.Helper()
	vm.ResetProfile()
	vm.EnableProfiling()
	defer vm.DisableProfiling()
	in := vmInterp(t, program)
	g, err := in.EvalGen(expr)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	drain(g, n)
	return vm.SnapshotProfile()
}

func TestProfileCountsOpsAndYields(t *testing.T) {
	snap := runProfiled(t, `
procedure nums(n)
  local i
  every i := 1 to n do suspend i
end`, "nums(50)", 100)
	var proc *vm.ProcProfile
	for i := range snap {
		if snap[i].Name == "nums" {
			proc = &snap[i]
		}
	}
	if proc == nil {
		t.Fatalf("no profile for nums; got %+v", snap)
	}
	if proc.Yields < 50 {
		t.Fatalf("yields = %d, want >= 50", proc.Yields)
	}
	if proc.Calls < 1 {
		t.Fatalf("calls = %d, want >= 1", proc.Calls)
	}
	if proc.Total <= 0 || len(proc.Ops) == 0 {
		t.Fatalf("no opcode counts recorded: %+v", proc)
	}
	// suspend-to-resume latency: every yield but the last was resumed.
	if proc.ResumeLat.Count < 40 {
		t.Fatalf("resume latency count = %d, want >= 40", proc.ResumeLat.Count)
	}
	if !(proc.ResumeLat.P50 <= proc.ResumeLat.P99 && proc.ResumeLat.P99 <= proc.ResumeLat.P999) {
		t.Fatalf("resume percentiles out of order: %+v", proc.ResumeLat)
	}
}

// TestProfileRegistryBoundedAcrossMachines: machines built repeatedly for
// the same unit share one profile row — the registry does not grow with
// every Machine a long-lived process creates — and the row sums them all.
func TestProfileRegistryBoundedAcrossMachines(t *testing.T) {
	vm.ResetProfile()
	vm.EnableProfiling()
	defer vm.DisableProfiling()
	const machines = 20
	for i := 0; i < machines; i++ {
		in := vmInterp(t, `
procedure again(n)
  local i
  every i := 1 to n do suspend i
end`)
		g, err := in.EvalGen("again(5)")
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		drain(g, 10)
	}
	rows, yields := 0, int64(0)
	for _, pp := range vm.SnapshotProfile() {
		if pp.Name == "again" {
			rows++
			yields += pp.Yields
		}
	}
	if rows != 1 {
		t.Fatalf("%d profile rows for one unit run by %d machines, want 1", rows, machines)
	}
	if yields != 5*machines {
		t.Fatalf("yields = %d, want %d", yields, 5*machines)
	}
}

func TestProfileOffIsInvisible(t *testing.T) {
	vm.ResetProfile()
	vm.DisableProfiling()
	in := vmInterp(t, `
procedure quiet(n)
  local i
  every i := 1 to n do suspend i
end`)
	g, err := in.EvalGen("quiet(10)")
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	drain(g, 20)
	for _, pp := range vm.SnapshotProfile() {
		if pp.Name == "quiet" && pp.Total > 0 {
			t.Fatalf("profiling disabled but counts recorded: %+v", pp)
		}
	}
}

func TestProfileWriteText(t *testing.T) {
	runProfiled(t, `
procedure trip(n)
  local i
  every i := 1 to n do suspend i * 3
end`, "trip(5)", 10)
	var buf bytes.Buffer
	vm.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "trip") {
		t.Fatalf("text profile missing procedure name:\n%s", out)
	}
	if !strings.Contains(out, "yields=") || !strings.Contains(out, "ops=") {
		t.Fatalf("text profile missing counters:\n%s", out)
	}
}

func TestProfileWritePprof(t *testing.T) {
	runProfiled(t, `
procedure pp(n)
  local i
  every i := 1 to n do suspend i
end`, "pp(20)", 40)
	var buf bytes.Buffer
	if err := vm.WritePprof(&buf); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	// The profile must be valid gzip whose payload mentions the procedure
	// and sample-type strings (the string table is stored verbatim).
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	for _, want := range []string{"pp", "ops", "count", "junicon-vm"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("profile payload missing %q", want)
		}
	}
}
