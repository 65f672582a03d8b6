package orgs

import (
	"testing"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/expt"
	"singlespec/internal/isa"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/kernels"
	"singlespec/internal/mach"
)

func kernelProgram(t *testing.T, isaName, kernel string) (*isa.ISA, *asm.Program, uint32) {
	t.Helper()
	i := isatest.Load(t, isaName)
	k := kernels.ByName(kernel)
	prog, err := kernels.BuildProgram(i, k.Build(k.DefaultN))
	if err != nil {
		t.Fatal(err)
	}
	return i, prog, k.Ref(k.DefaultN)
}

// check validates exit status, cycle sanity, and the checksum left in the
// run's machine.
func check(t *testing.T, r *Result, err error, prog *asm.Program, want uint32) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.ExitCode != 0 {
		t.Fatalf("%s: halted=%v exit=%d", r.Org, r.Halted, r.ExitCode)
	}
	// In-order models keep IPC <= 1; the dynamically-scheduled model is
	// two-wide, so IPC <= 2 bounds every organization.
	if r.Cycles < r.Instrs/2 {
		t.Errorf("%s: cycles (%d) imply IPC > 2 for %d instructions", r.Org, r.Cycles, r.Instrs)
	}
	got, _ := r.Machine.Mem.Load(prog.Symbols["result"], 4)
	if uint32(got) != want {
		t.Errorf("%s: checksum %#x, want %#x", r.Org, got, want)
	}
}

func TestAllOrganizationsAllISAs(t *testing.T) {
	const budget = 10_000_000
	for _, name := range isa.Names() {
		t.Run(name, func(t *testing.T) {
			i, prog, want := kernelProgram(t, name, "sieve")

			r1, err := RunIntegrated(i, prog, budget)
			check(t, r1, err, prog, want)
			r2, err := RunFunctionalFirst(i, prog, budget)
			check(t, r2, err, prog, want)
			r3, err := RunBlockFunctionalFirst(i, prog, budget)
			check(t, r3, err, prog, want)
			r4, err := RunTimingDirected(i, prog, budget)
			check(t, r4, err, prog, want)
			r5, err := RunTimingFirst(i, prog, budget, nil)
			check(t, r5, err, prog, want)
			if r5.Mismatches != 0 {
				t.Errorf("timing-first without bug: %d mismatches", r5.Mismatches)
			}
			r6, err := RunSpecFunctionalFirst(i, prog, budget, 32, nil)
			check(t, r6, err, prog, want)
			if r6.Machine.Journal.Len() != 0 {
				t.Errorf("spec-FF left %d uncommitted journal entries", r6.Machine.Journal.Len())
			}
			r7, err := RunSampled(i, prog, budget, 200, 2000)
			checkSampled(t, r7, err, prog, want)
			if r7.FFInstrs == 0 {
				t.Error("sampling fast-forwarded nothing")
			}

			// Every organization retires the same instruction count.
			for _, r := range []*Result{r2, r3, r4, r5, r6, r7} {
				if r.Instrs != r1.Instrs {
					t.Errorf("%s retired %d instructions, integrated retired %d", r.Org, r.Instrs, r1.Instrs)
				}
			}
			// The same stream through the same model costs the same cycles,
			// no matter which interface produced it.
			if r1.Cycles != r2.Cycles || r2.Cycles != r3.Cycles {
				t.Errorf("same model, different cycles: integrated=%d one=%d block=%d",
					r1.Cycles, r2.Cycles, r3.Cycles)
			}
			// The dynamically-scheduled model must beat the in-order one.
			if r4.Cycles >= r2.Cycles {
				t.Errorf("OoO model (%d cycles) not faster than in-order (%d)", r4.Cycles, r2.Cycles)
			}
		})
	}
}

// checkSampled is check minus the cycles>instrs assertion: sampling only
// models the detailed windows, so total cycles are (by design) far below
// the retired instruction count.
func checkSampled(t *testing.T, r *Result, err error, prog *asm.Program, want uint32) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.ExitCode != 0 {
		t.Fatalf("%s: halted=%v exit=%d", r.Org, r.Halted, r.ExitCode)
	}
	if r.Cycles == 0 || r.Cycles >= r.Instrs {
		t.Errorf("%s: cycles = %d of %d instrs; detailed windows should be a small fraction", r.Org, r.Cycles, r.Instrs)
	}
	got, _ := r.Machine.Mem.Load(prog.Symbols["result"], 4)
	if uint32(got) != want {
		t.Errorf("%s: checksum %#x, want %#x", r.Org, got, want)
	}
}

func TestTimingFirstDetectsInjectedBug(t *testing.T) {
	i, prog, want := kernelProgram(t, "alpha64", "sieve")
	var injected uint64
	bug := func(seq uint64, m *mach.Machine, rec *core.Record) bool {
		if seq%97 != 96 {
			return false
		}
		m.MustSpace("r").Vals[1] ^= 0x4
		injected++
		return true
	}
	r, err := RunTimingFirst(i, prog, 10_000_000, bug)
	if err != nil {
		t.Fatal(err)
	}
	if injected == 0 {
		t.Fatal("bug never injected")
	}
	if r.Mismatches == 0 {
		t.Fatal("checker detected no mismatches")
	}
	if r.Mismatches > injected {
		t.Errorf("mismatches (%d) exceed injections (%d)", r.Mismatches, injected)
	}
	// Despite the buggy timing model, recovery keeps the run correct —
	// the organization's whole point (§II-D).
	if !r.Halted || r.ExitCode != 0 {
		t.Fatalf("corrupted run did not recover: halted=%v exit=%d", r.Halted, r.ExitCode)
	}
	got, _ := r.Machine.Mem.Load(prog.Symbols["result"], 4)
	if uint32(got) != want {
		t.Errorf("checksum after recovery = %#x, want %#x", got, want)
	}
}

func TestSpecFuncFirstRollbackPreservesSemantics(t *testing.T) {
	// listchase's chase phase reads memory that is never written again, so
	// a re-executed load with an override equal to the memory's current
	// value must reproduce the baseline exactly — while exercising real
	// rollbacks.
	for _, name := range isa.Names() {
		i, prog, want := kernelProgram(t, name, "listchase")
		sim, err := core.Synthesize(i.Spec, "one_decode_spec", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		classSlot := sim.Layout.MustSlot("instr_class")
		eaSlot := sim.Layout.MustSlot("effective_addr")
		sizeSlot := sim.Layout.MustSlot("mem_size")

		loads := uint64(0)
		verify := func(seq uint64, m *mach.Machine, rec *core.Record) *uint64 {
			if rec.Nullified || int(rec.Vals[classSlot]) != 2 {
				return nil
			}
			loads++
			if loads%20 != 0 {
				return nil
			}
			// "Memory order verified different, but the correct value is
			// what memory holds now" — a same-value replay.
			v, _ := m.Mem.Load(rec.Vals[eaSlot], int(rec.Vals[sizeSlot]))
			return &v
		}
		r, err := RunSpecFunctionalFirst(i, prog, 10_000_000, 16, verify)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rollbacks == 0 {
			t.Fatalf("%s: no rollbacks were exercised", name)
		}
		if !r.Halted || r.ExitCode != 0 {
			t.Fatalf("%s: halted=%v exit=%d", name, r.Halted, r.ExitCode)
		}
		got, _ := r.Machine.Mem.Load(prog.Symbols["result"], 4)
		if uint32(got) != want {
			t.Errorf("%s: checksum after %d rollbacks = %#x, want %#x", name, r.Rollbacks, got, want)
		}
	}
}

func TestSpecFuncFirstDivergentOverrideChangesOutcome(t *testing.T) {
	// Sanity check of the override machinery itself: forcing a *different*
	// load value must change the result (otherwise overrides are ignored).
	i, prog, want := kernelProgram(t, "alpha64", "listchase")
	sim, _ := core.Synthesize(i.Spec, "one_decode_spec", core.Options{})
	classSlot := sim.Layout.MustSlot("instr_class")
	done := false
	verify := func(seq uint64, m *mach.Machine, rec *core.Record) *uint64 {
		if done || rec.Nullified || int(rec.Vals[classSlot]) != 2 {
			return nil
		}
		done = true
		v := uint64(0x12345)
		return &v
	}
	r, err := RunSpecFunctionalFirst(i, prog, 10_000_000, 16, verify)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", r.Rollbacks)
	}
	got, _ := r.Machine.Mem.Load(prog.Symbols["result"], 4)
	if r.Halted && uint32(got) == want {
		t.Error("divergent override did not change the outcome")
	}
}

func TestSampledFastForwardDominates(t *testing.T) {
	i, prog, _ := kernelProgram(t, "arm32", "sieve")
	r, err := RunSampled(i, prog, 10_000_000, 100, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if r.FFInstrs*2 < r.Instrs {
		t.Errorf("expected most instructions fast-forwarded: ff=%d total=%d", r.FFInstrs, r.Instrs)
	}
	if r.OoO.Instrs == 0 {
		t.Error("no detailed instructions were modeled")
	}
}

func TestPipelineCacheAndBranchStatsPlausible(t *testing.T) {
	i, prog, _ := kernelProgram(t, "ppc32", "sieve")
	r, err := RunFunctionalFirst(i, prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pipeline.Branches == 0 || r.Pipeline.Loads == 0 || r.Pipeline.Stores == 0 {
		t.Errorf("implausible pipeline stats: %+v", r.Pipeline)
	}
	if r.Pipeline.Mispredicts == 0 || r.Pipeline.Mispredicts >= r.Pipeline.Branches {
		t.Errorf("implausible misprediction count: %d of %d", r.Pipeline.Mispredicts, r.Pipeline.Branches)
	}
	if ipc := r.IPC(); ipc <= 0 || ipc > 1 {
		t.Errorf("in-order IPC = %f", ipc)
	}
}

// mixProgram assembles one kernel of the expt.Mix(1) benchmark mix and
// returns its expected checksum.
func mixProgram(tb testing.TB, isaName string, me expt.MixEntry) (*isa.ISA, *asm.Program, uint32) {
	tb.Helper()
	i := isatest.Load(tb, isaName)
	k := kernels.ByName(me.Kernel)
	prog, err := kernels.BuildProgram(i, k.Build(me.N))
	if err != nil {
		tb.Fatal(err)
	}
	return i, prog, k.Ref(me.N)
}

func TestTraceDrivenMatchesFunctionalFirst(t *testing.T) {
	// The serialized-and-replayed stream must drive the timing model
	// exactly as the live stream does: same instructions, same statistics.
	for _, name := range isa.Names() {
		for _, me := range expt.Mix(1) {
			t.Run(name+"/"+me.Kernel, func(t *testing.T) {
				i, prog, want := mixProgram(t, name, me)
				live, err := RunFunctionalFirst(i, prog, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := RunTraceDriven(i, prog, 10_000_000)
				check(t, traced, err, prog, want)
				if traced.Instrs != live.Instrs || traced.Pipeline != live.Pipeline {
					t.Errorf("trace replay diverged: %d instrs %+v, live %d instrs %+v",
						traced.Instrs, traced.Pipeline, live.Instrs, live.Pipeline)
				}
			})
		}
	}
}

// TestTraceDrivenSpoolSegments runs the trace-driven organization over a
// program many spool segments long, with budgets that stop it mid-segment,
// exactly on a segment boundary, and at the program's own end: each must
// replay exactly the stream the live functional-first organization sees.
func TestTraceDrivenSpoolSegments(t *testing.T) {
	i, prog, _ := kernelProgram(t, "ppc32", "sieve")
	full, err := RunFunctionalFirst(i, prog, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Instrs < 8*spoolRecords {
		t.Fatalf("program retires %d instructions, want several %d-record segments", full.Instrs, spoolRecords)
	}
	for _, budget := range []uint64{
		3*spoolRecords + spoolRecords/2, // mid-segment
		4 * spoolRecords,                // on a segment boundary
		spoolRecords - 1,                // inside the first segment
		10_000_000,                      // the program halts
	} {
		live, err := RunFunctionalFirst(i, prog, budget)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := RunTraceDriven(i, prog, budget)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(budget, full.Instrs); traced.Instrs != want {
			t.Errorf("budget %d: retired %d instructions, want %d", budget, traced.Instrs, want)
		}
		if traced.Instrs != live.Instrs || traced.Pipeline != live.Pipeline || traced.Halted != live.Halted {
			t.Errorf("budget %d: trace replay %d instrs %+v halted=%v, live %d instrs %+v halted=%v", budget,
				traced.Instrs, traced.Pipeline, traced.Halted, live.Instrs, live.Pipeline, live.Halted)
		}
	}
}

// TestTimingFirstAllocsIndependentOfLength checks that the timing-first
// checker compares and repairs state in place: a run twenty times longer
// allocates no more than a short one (all its allocations are set-up).
func TestTimingFirstAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) (float64, uint64) {
		i, prog, _ := mixProgram(t, "arm32", expt.MixEntry{Kernel: "fib_iter", N: n})
		var instrs uint64
		a := testing.AllocsPerRun(2, func() {
			r, err := RunTimingFirst(i, prog, 10_000_000, nil)
			if err != nil || !r.Halted {
				t.Fatalf("run failed: %v", err)
			}
			instrs = r.Instrs
		})
		return a, instrs
	}
	shortAllocs, shortInstrs := allocs(1000)
	longAllocs, longInstrs := allocs(20000)
	if longInstrs < 10*shortInstrs {
		t.Fatalf("problem sizes retire %d and %d instructions; want a 10x spread", shortInstrs, longInstrs)
	}
	if longAllocs > shortAllocs {
		t.Errorf("timing-first allocations grow with length: %.0f for %d instructions, %.0f for %d",
			shortAllocs, shortInstrs, longAllocs, longInstrs)
	}
}

// benchOrg reports an organization's cost per simulated instruction over
// the crc32 kernel of the expt.Mix(1) mix, set-up included, on alpha64.
func benchOrg(b *testing.B, run func(i *isa.ISA, prog *asm.Program) (*Result, error)) {
	var me expt.MixEntry
	for _, e := range expt.Mix(1) {
		if e.Kernel == "crc32" {
			me = e
		}
	}
	i, prog, _ := mixProgram(b, "alpha64", me)
	var instrs uint64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r, err := run(i, prog)
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

func BenchmarkOrgTimingFirst(b *testing.B) {
	benchOrg(b, func(i *isa.ISA, prog *asm.Program) (*Result, error) {
		return RunTimingFirst(i, prog, 10_000_000, nil)
	})
}

func BenchmarkOrgTraceDriven(b *testing.B) {
	benchOrg(b, func(i *isa.ISA, prog *asm.Program) (*Result, error) {
		return RunTraceDriven(i, prog, 10_000_000)
	})
}

func BenchmarkOrgTimingDirected(b *testing.B) {
	benchOrg(b, func(i *isa.ISA, prog *asm.Program) (*Result, error) {
		return RunTimingDirected(i, prog, 10_000_000)
	})
}
