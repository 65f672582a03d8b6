package core

import (
	"runtime"
	"testing"

	"singlespec/internal/lis"
	"singlespec/internal/mach"
)

// Tests for the first-level tables' growth policy: a table starts at
// l1InitSlots slots, doubles as its fills pass half the table, and stays
// correct across growth under self-modifying code.

// longLoopProgram is n single-instruction increments of r1 followed by a
// counted loop back to the start (r9 iterations, r11 = 1) and a halt.
// Every instruction has its own PC, so one pass fills n+3 table slots.
func longLoopProgram(n int) []uint32 {
	prog := make([]uint32, 0, n+4)
	for i := 0; i < n; i++ {
		prog = append(prog, encALU(opADD, 1, 11, 1)) // r1 += 1
	}
	return append(prog,
		encALU(opSUB, 9, 11, 9),       // r9 -= 1
		encBR(opBEQ, 9, 1),            // r9 == 0 -> halt
		encBR(opBEQ, 15, -int32(n+3)), // always -> start
		encALU(opHLT, 15, 0, 0),
	)
}

// runLongLoopWithSMC runs longLoopProgram one instruction or block per
// call. Once smcAt instructions have retired it rewrites two increments to
// target r2 instead: one already executed (and cached) and one not yet
// reached. It returns the final register file.
func runLongLoopWithSMC(t *testing.T, x *Exec, n int, smcAt uint64) []uint64 {
	t.Helper()
	m := x.M
	r := m.MustSpace("r")
	r.Vals[9], r.Vals[11] = 2, 1
	var rec Record
	var batch Batch
	block := x.sim.BS.Mode == lis.ModeBlock
	stored := false
	for steps := 0; !m.Halted && steps < 4*n; steps++ {
		if m.Instret >= smcAt && !stored {
			stored = true
			for _, i := range []uint64{100, uint64(n) - 100} {
				m.Mem.Store(codeBase+4*i, uint64(encALU(opADD, 2, 11, 2)), 4)
			}
		}
		if block {
			x.ExecBlock(&batch)
		} else {
			x.ExecOne(&rec)
		}
	}
	if !m.Halted || m.ExitCode != 0 {
		t.Fatalf("%s: halted=%v exit=%d", x.sim.BS.Name, m.Halted, m.ExitCode)
	}
	return append([]uint64(nil), r.Vals...)
}

// TestL1GrowthUnderSMC forces two table doublings mid-run (at 513 and
// 1025 fills), with a code store between them, on the One and Block
// interfaces. The final state must match an uncached interpreted run, so
// no stale unit, block or chain link survived a rehash.
func TestL1GrowthUnderSMC(t *testing.T) {
	const n = 1500
	const smcAt = 700
	spec := toySpec(t)
	ref := runLongLoopWithSMC(t, synth(t, "one_min", Options{NoTranslate: true}).NewExec(loadProgram(spec, longLoopProgram(n))), n, smcAt)
	// Iteration 1 ran the early rewritten increment before the store, so
	// r1 lost three increments to r2 over the two iterations.
	if ref[1] != 2*n-3 || ref[2] != 3 {
		t.Fatalf("reference run: r1=%d r2=%d, want %d and 3", ref[1], ref[2], 2*n-3)
	}
	for _, tc := range []struct {
		bs   string
		opts Options
		size func(x *Exec) int
	}{
		{"one_min", Options{}, func(x *Exec) int { return len(x.utab.slots) }},
		{"block_min", Options{MaxBlockLen: 1}, func(x *Exec) int { return len(x.btab.slots) }},
		{"block_min", Options{}, func(x *Exec) int { return len(x.btab.slots) }},
	} {
		s := synth(t, tc.bs, tc.opts)
		x := s.NewExec(loadProgram(spec, longLoopProgram(n)))
		got := runLongLoopWithSMC(t, x, n, smcAt)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s %+v: r%d = %d, want %d", tc.bs, tc.opts, i, got[i], ref[i])
			}
		}
		if tc.opts.MaxBlockLen == 1 {
			if sz := tc.size(x); sz < 4*l1InitSlots {
				t.Errorf("%s %+v: table has %d slots, want two doublings to %d", tc.bs, tc.opts, sz, 4*l1InitSlots)
			}
			if st := x.Stats(); st.BlockChainFollows == 0 {
				t.Errorf("%s %+v: no chain follows, so links were not exercised", tc.bs, tc.opts)
			}
		}
	}
}

// TestL1GrowthStopsAtCap: growth never passes Options.CacheCap.
func TestL1GrowthStopsAtCap(t *testing.T) {
	const n = 1500
	s := synth(t, "one_min", Options{CacheCap: 2048})
	x := s.NewExec(loadProgram(toySpec(t), longLoopProgram(n)))
	runLongLoopWithSMC(t, x, n, 0)
	if sz := len(x.utab.slots); sz != 2048 {
		t.Errorf("table has %d slots, want the 2048-slot cap", sz)
	}
	if x.Stats().UnitL1Conflicts == 0 {
		t.Error("a capped table over a larger working set saw no conflicts")
	}
}

// TestFreshExecAllocationBound: binding a new Exec to a machine and running
// its first instruction or block on a warm Sim allocates under 64 KiB. The
// experiment engine, the organizations and the benchmark ladder build an
// Exec per run, so this is a per-job cost.
func TestFreshExecAllocationBound(t *testing.T) {
	const bound = 64 << 10
	for _, bs := range []string{"one_min", "one_all", "one_all_spec", "step_all", "block_min", "block_all"} {
		s := synth(t, bs, Options{})
		s.NewExec(benchMachine(s.Spec, 10)).Run(1 << 10) // warm the shared cache
		m := benchMachine(s.Spec, 10)
		m.Mem.Store(dataBase, 0, 8) // fault in the data page: machine, not Exec, memory
		var rec Record
		var batch Batch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x := s.NewExec(m)
		switch {
		case s.BS.Mode == lis.ModeBlock:
			x.ExecBlock(&batch)
		case len(s.BS.Entrypoints) > 1:
			x.ExecOneStepwise(&rec)
		default:
			x.ExecOne(&rec)
		}
		runtime.ReadMemStats(&after)
		if m.Instret == 0 || rec.Fault != mach.FaultNone {
			t.Fatalf("%s: first call retired nothing", bs)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= bound {
			t.Errorf("%s: NewExec plus first call allocated %d bytes, want < %d", bs, d, bound)
		} else {
			t.Logf("%s: %d bytes", bs, d)
		}
	}
}
