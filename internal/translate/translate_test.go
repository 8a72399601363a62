package translate_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/interp"
	"junicon/internal/translate"
	"junicon/internal/translate/gen"
	"junicon/internal/value"
)

const spawnMapSrc = `
def spawnMap (f, chunk) {
  suspend ! (|> f(!chunk));
}
`

// TestSpawnMapTranslationShape pins the Figure 5 structure of the emitted
// code: a variadic procedure value, reified parameters with unpacking, a
// co-expression constructor over the shadowed (_s) environment, pipe
// creation, and the product/in/promote composition.
func TestSpawnMapTranslationShape(t *testing.T) {
	out, err := translate.TranslateProgram(spawnMapSrc, translate.Options{Package: "gen"})
	if err != nil {
		t.Fatalf("translate: %v\n%s", err, out)
	}
	for _, want := range []string{
		`var P_spawnMap = value.NewProc("spawnMap", 2, func(args ...value.V) core.Gen {`,
		"// Reified parameters",
		"v_f_r := value.NewCell(value.NullV)",
		"v_chunk_r := value.NewCell(value.NullV)",
		"// Unpack parameters",
		"v_f_r.Set(value.Deref(args[0]))",
		"coexpr.New([]value.V{",  // environment snapshot
		"v_chunk_s_r := env[",    // shadowed locals, Figure 5's chunk_s
		"v_f_s_r := env[",        // and f_s
		"core.Product(",          // IconProduct
		"core.In(",               // IconIn
		"core.Promote(",          // IconPromote
		"pipe.New(",              // createPipe()
		"p.StartEager()",         //
		"core.NewGen(func(yield", // suspendable method body
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n----\n%s", want, out)
		}
	}
}

// TestGeneratedFileIsFresh regenerates gen/gen.go from testdata/program.jn
// and requires the committed file to match — the committed package doubles
// as the compile-check of translator output.
func TestGeneratedFileIsFresh(t *testing.T) {
	src, err := os.ReadFile("testdata/program.jn")
	if err != nil {
		t.Fatal(err)
	}
	out, err := translate.TranslateProgram(string(src), translate.Options{Package: "gen"})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	committed, err := os.ReadFile("gen/gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != out {
		t.Fatalf("gen/gen.go is stale; regenerate with:\n  go run ./cmd/junicon -emit -pkg gen internal/translate/testdata/program.jn > internal/translate/gen/gen.go")
	}
}

// callGen invokes a translated procedure from the generated package.
func callGen(t *testing.T, name string, args ...value.V) []string {
	t.Helper()
	cell, ok := gen.Globals[name]
	if !ok {
		t.Fatalf("no translated procedure %q", name)
	}
	p, ok := cell.Get().(*value.Proc)
	if !ok {
		t.Fatalf("%q is not a procedure: %s", name, value.Image(cell.Get()))
	}
	var out []string
	err := core.Protect(func() {
		for _, v := range core.Drain(p.Call(args...), 1000) {
			out = append(out, value.Image(v))
		}
	})
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return out
}

// callInterp runs the same program in the interpreter.
func callInterp(t *testing.T, expr string) []string {
	t.Helper()
	src, err := os.ReadFile("testdata/program.jn")
	if err != nil {
		t.Fatal(err)
	}
	in := interp.New()
	if err := in.LoadProgram(string(src)); err != nil {
		t.Fatal(err)
	}
	vs, err := in.Eval(expr, 1000)
	if err != nil {
		t.Fatalf("interp %s: %v", expr, err)
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = value.Image(v)
	}
	return out
}

// TestTranslatedMatchesInterpreted is the migration-correctness check: the
// translated (native Go) program and the interpreted program produce
// identical result sequences.
func TestTranslatedMatchesInterpreted(t *testing.T) {
	cases := []struct {
		name string
		args []value.V
		expr string
	}{
		{"primesUpTo", []value.V{value.NewInt(20)}, "primesUpTo(20)"},
		{"sq", []value.V{value.NewInt(7)}, "sq(7)"},
		{"sumList", []value.V{value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3))}, "sumList([1,2,3])"},
		{"pipelineSquares", []value.V{value.NewInt(5)}, "pipelineSquares(5)"},
		{"classify", []value.V{value.NewInt(3)}, "classify(3)"},
		{"classify", []value.V{value.NewInt(9)}, "classify(9)"},
		{"countdown", []value.V{value.NewInt(4)}, "countdown(4)"},
	}
	for _, c := range cases {
		got := callGen(t, c.name, c.args...)
		want := callInterp(t, c.expr)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: translated %v != interpreted %v", c.expr, got, want)
		}
	}
}

func TestTranslatedChunkAndSpawnMap(t *testing.T) {
	// chunk(<>(1 to 10), 4) through the translated code: build the
	// co-expression with the kernel and pass it in.
	got := callGen(t, "chunk", core.NewFirstClass(core.IntRange(1, 10)), value.NewInt(4))
	want := []string{"[1,2,3,4]", "[5,6,7,8]", "[9,10]"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("chunk = %v", got)
	}
	// spawnMap(sq, [1,2,3]) — the Figure 5 procedure end to end.
	sqCell := gen.Globals["sq"]
	chunk := value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3))
	got = callGen(t, "spawnMap", sqCell.Get(), chunk)
	want = []string{"1", "4", "9"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("spawnMap = %v", got)
	}
}

func TestTranslatedGlobalsAndRun(t *testing.T) {
	gen.Run()
	total, ok := gen.Globals["total"]
	if !ok {
		t.Fatal("global total missing")
	}
	if value.Image(total.Get()) != "0" {
		t.Fatalf("total = %s", value.Image(total.Get()))
	}
}

func TestTranslateErrors(t *testing.T) {
	if _, err := translate.TranslateProgram("def f( {", translate.Options{}); err == nil {
		t.Fatal("parse error should surface")
	}
	if _, err := translate.TranslateProgram("suspend 1", translate.Options{}); err == nil {
		t.Fatal("suspend outside procedure should be rejected")
	}
}

func TestTranslateRecord(t *testing.T) {
	out, err := translate.TranslateProgram("record point(x, y)", translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `value.NewRecord("point"`) {
		t.Fatalf("record constructor missing:\n%s", out)
	}
}

func TestNativeRegistrationPath(t *testing.T) {
	// Natives map is exposed for host interop.
	gen.Natives["hostDouble"] = value.NewNative("hostDouble", func(args ...value.V) (value.V, error) {
		return value.Mul(args[0], value.NewInt(2)), nil
	})
	defer delete(gen.Natives, "hostDouble")
	src := `def useNative(x) { return this::hostDouble(x); }`
	out, err := translate.TranslateProgram(src, translate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `native("hostDouble")`) {
		t.Fatalf("native lookup missing:\n%s", out)
	}
}

// TestClassDualExposure pins the §5C duality: the translated class exposes
// plain fields for host code and reified views for embedded code, with
// assignments visible on both sides.
func TestClassDualExposure(t *testing.T) {
	o := gen.NewCounter(value.NewInt(2))
	// Embedded method mutates the field through the reified view...
	got := core.Drain(o.Incr.Call(value.NewInt(3)), 0)
	if len(got) != 1 || value.Image(got[0]) != "5" {
		t.Fatalf("incr(3) = %v", got)
	}
	// ...and the host sees it through the plain field.
	if value.Image(o.Count) != "5" {
		t.Fatalf("plain field = %s", value.Image(o.Count))
	}
	// Host writes the plain field; embedded code observes it.
	o.Count = value.NewInt(3)
	if n := core.Count(o.Upto.Call()); n != 3 {
		t.Fatalf("upto after host write = %d results", n)
	}
	// The reified view reads through to the same storage.
	if value.Image(o.Count_r.Get()) != "3" {
		t.Fatalf("reified view = %s", value.Image(o.Count_r.Get()))
	}
	o.Count_r.Set(value.NewInt(1))
	if value.Image(o.Count) != "1" {
		t.Fatalf("plain after reified set = %s", value.Image(o.Count))
	}
}

// TestClassConstructorFromEmbeddedCode: the constructor procedure yields a
// record view with reference semantics over the reified fields.
func TestClassConstructorFromEmbeddedCode(t *testing.T) {
	cell, ok := gen.Globals["Counter"]
	if !ok {
		t.Fatal("Counter constructor not registered")
	}
	p := cell.Get().(*value.Proc)
	inst := core.Drain(p.Call(value.NewInt(7)), 0)
	if len(inst) != 1 {
		t.Fatalf("constructor results = %d", len(inst))
	}
	rec, ok := inst[0].(*value.Record)
	if !ok {
		t.Fatalf("instance = %T", inst[0])
	}
	countRef, _ := rec.GetField("count")
	if value.Image(value.Deref(countRef)) != "7" {
		t.Fatalf("count = %s", value.Image(value.Deref(countRef)))
	}
	incrRef, _ := rec.GetField("incr")
	incr := value.Deref(incrRef).(*value.Proc)
	core.Drain(incr.Call(value.NewInt(1)), 0)
	if value.Image(value.Deref(countRef)) != "8" {
		t.Fatalf("count after incr = %s", value.Image(value.Deref(countRef)))
	}
}

// TestTranslatedStaticsAndInitial: static state persists across calls of
// the translated procedure, and initial runs once.
func TestTranslatedStaticsAndInitial(t *testing.T) {
	// The static lives in the translated package for the whole process,
	// so an earlier run (-count=N) has already ticked it: count from
	// wherever it stands, one step per call.
	tick := func() int {
		t.Helper()
		got := callGen(t, "ticker")
		if len(got) != 1 {
			t.Fatalf("tick = %v, want one value", got)
		}
		n, err := strconv.Atoi(got[0])
		if err != nil || n < 1 {
			t.Fatalf("tick = %v, want a positive count", got)
		}
		return n
	}
	first := tick()
	if got := tick(); got != first+1 {
		t.Fatalf("second tick = %d after %d: static did not persist", got, first)
	}
	if got := tick(); got != first+2 {
		t.Fatalf("third tick = %d after %d: static did not persist", got, first)
	}
}

// TestOptimizedTranslationShape pins the facts-driven emission forms of
// Options.Optimize: a statically pure pipe body compiles to an inline
// proxy (no goroutine, no queue) and a pure ≤1-yield product prefix to
// core.FusedProduct — and that without Optimize neither form appears.
func TestOptimizedTranslationShape(t *testing.T) {
	const src = `
def fusedSite (xs) {
  suspend ! (|> ((1 to 3) * 2));
}
def prefixSite (g) {
  suspend g(1 + 2, 3 * 4);
}
`
	plain, err := translate.TranslateProgram(src, translate.Options{Package: "gen"})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	for _, banned := range []string{"pipe.NewInline(", "core.FusedProduct("} {
		if strings.Contains(plain, banned) {
			t.Errorf("unoptimized output contains %q", banned)
		}
	}

	opt, err := translate.TranslateProgram(src, translate.Options{Package: "gen", Optimize: true})
	if err != nil {
		t.Fatalf("translate optimized: %v", err)
	}
	for _, want := range []string{"pipe.NewInline(", "core.FusedProduct("} {
		if !strings.Contains(opt, want) {
			t.Errorf("optimized output missing %q\n----\n%s", want, opt)
		}
	}
}
