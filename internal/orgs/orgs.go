// Package orgs implements the decoupled microarchitectural simulator
// organizations of the paper's Figure 1 — integrated, functional-first,
// timing-directed, timing-first, and speculative functional-first — each
// wired to the interface detail it naturally requires (§II). It also
// provides SMARTS-style sampling, which mixes two interfaces in one run
// (detailed windows through Step/All, fast-forward through Block/Min).
package orgs

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/lis"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
	"singlespec/internal/timing/bpred"
	"singlespec/internal/timing/cache"
	"singlespec/internal/timing/ooo"
	"singlespec/internal/timing/pipeline"
	"singlespec/internal/trace"
)

// Result summarizes one simulation.
type Result struct {
	Org        string
	Instrs     uint64
	Cycles     uint64
	Mismatches uint64 // timing-first: checker corrections
	Rollbacks  uint64 // speculative functional-first
	FFInstrs   uint64 // sampling: instructions fast-forwarded
	ExitCode   int
	Halted     bool
	Stdout     string
	// Machine is the (primary) simulated machine after the run, so callers
	// can inspect architectural state (e.g. kernel checksums).
	Machine *mach.Machine

	Pipeline pipeline.Stats
	OoO      ooo.Stats
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

type env struct {
	i   *isa.ISA
	m   *mach.Machine
	emu *sysemu.Emulator
}

func newEnv(i *isa.ISA, prog *asm.Program) *env {
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	return &env{i: i, m: m, emu: emu}
}

func (e *env) finish(r *Result) {
	r.ExitCode = e.m.ExitCode
	r.Halted = e.m.Halted
	r.Stdout = e.emu.Stdout.String()
	r.Instrs = e.m.Instret
	r.Machine = e.m
}

// RunIntegrated is the baseline single-simulator organization: timing and
// functionality advance together in one loop with no decoupling (no
// stream, no separate consumer). It uses the highest-detail derived code,
// as an integrated simulator that models the datapath directly would.
func RunIntegrated(i *isa.ISA, prog *asm.Program, budget uint64) (*Result, error) {
	sim, err := core.Synthesize(i.Spec, "one_all", core.Options{})
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), sim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	e := newEnv(i, prog)
	x := sim.NewExec(e.m)
	var rec core.Record
	for !e.m.Halted && e.m.Instret < budget {
		ok := x.ExecOne(&rec)
		model.Consume(&rec)
		if !ok {
			break
		}
	}
	r := &Result{Org: "integrated", Cycles: model.Stats.Cycles, Pipeline: model.Stats}
	e.finish(r)
	return r, nil
}

// RunFunctionalFirst runs the functional-first organization: the
// functional simulator (One call per instruction, Decode informational
// detail — §II-B's "moderate informational detail") produces the
// instruction stream; the in-order pipeline timing model consumes it.
func RunFunctionalFirst(i *isa.ISA, prog *asm.Program, budget uint64) (*Result, error) {
	sim, err := core.Synthesize(i.Spec, "one_decode", core.Options{})
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), sim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	e := newEnv(i, prog)
	x := sim.NewExec(e.m)
	var rec core.Record
	for !e.m.Halted && e.m.Instret < budget {
		ok := x.ExecOne(&rec)
		model.Consume(&rec)
		if !ok {
			break
		}
	}
	r := &Result{Org: "functional-first", Cycles: model.Stats.Cycles, Pipeline: model.Stats}
	e.finish(r)
	return r, nil
}

// RunBlockFunctionalFirst is functional-first over the Block interface:
// the functional simulator delivers whole translated basic blocks of
// records per call (the fastest stream producer that still carries decode
// detail).
func RunBlockFunctionalFirst(i *isa.ISA, prog *asm.Program, budget uint64) (*Result, error) {
	sim, err := core.Synthesize(i.Spec, "block_decode", core.Options{})
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), sim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	e := newEnv(i, prog)
	x := sim.NewExec(e.m)
	var batch core.Batch
	for !e.m.Halted && e.m.Instret < budget {
		ok := x.ExecBlock(&batch)
		for j := range batch.Recs {
			model.Consume(&batch.Recs[j])
		}
		if !ok {
			break
		}
	}
	r := &Result{Org: "functional-first-block", Cycles: model.Stats.Cycles, Pipeline: model.Stats}
	e.finish(r)
	return r, nil
}

// stepDriver resolves, once, the Step-interface entrypoints a
// timing-directed model calls and the slots it reads from the record
// between calls.
type stepDriver struct {
	sim *core.Sim
	x   *core.Exec
	// Entrypoint indices of the seven Step calls, in call order.
	fetch, decode, opread, execute, memory, writeback, exception int
	class, src1, src2, dest, ea, taken, target                   int
}

func newStepDriver(i *isa.ISA, m *mach.Machine, buildset string) (*stepDriver, error) {
	sim, err := core.Synthesize(i.Spec, buildset, core.Options{})
	if err != nil {
		return nil, err
	}
	d := &stepDriver{sim: sim, x: sim.NewExec(m)}
	for _, ep := range []struct {
		name string
		idx  *int
	}{
		{"ep_fetch", &d.fetch}, {"ep_decode", &d.decode}, {"ep_opread", &d.opread},
		{"ep_execute", &d.execute}, {"ep_memory", &d.memory},
		{"ep_writeback", &d.writeback}, {"ep_exception", &d.exception},
	} {
		*ep.idx = slices.IndexFunc(sim.BS.Entrypoints, func(e *lis.Entrypoint) bool { return e.Name == ep.name })
		if *ep.idx < 0 {
			return nil, fmt.Errorf("orgs: buildset %s lacks Step entrypoint %s", buildset, ep.name)
		}
	}
	slot := func(name string) int {
		s, ok := sim.Layout.Slot(name)
		if !ok {
			return -1
		}
		return s
	}
	d.class = slot("instr_class")
	d.src1 = slot("src1_idx")
	d.src2 = slot("src2_idx")
	d.dest = slot("dest1_idx")
	d.ea = slot("effective_addr")
	d.taken = slot("branch_taken")
	d.target = slot("branch_target")
	if d.class < 0 || d.ea < 0 {
		return nil, fmt.Errorf("orgs: buildset %s lacks the detail a timing-directed model needs", buildset)
	}
	return d, nil
}

func (d *stepDriver) val(rec *core.Record, slot int) uint64 {
	if slot < 0 {
		return 0
	}
	return rec.Vals[slot]
}

func (d *stepDriver) idx(rec *core.Record, slot int) int {
	if slot < 0 {
		return -1
	}
	return int(d.val(rec, slot))
}

// RunTimingDirected runs the timing-directed organization: the
// dynamically-scheduled core model is in control and asks the functional
// simulator to perform each element of an instruction's behaviour through
// the seven-call Step/All interface — very high semantic detail (§II-C).
func RunTimingDirected(i *isa.ISA, prog *asm.Program, budget uint64) (*Result, error) {
	e := newEnv(i, prog)
	d, err := newStepDriver(i, e.m, "step_all")
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model := ooo.New(ooo.DefaultConfig(), hier, bpred.NewGShare(12, 8))
	var rec core.Record
	pc := e.m.PC
	n := uint64(0)
	for !e.m.Halted && n < budget {
		// The timing model owns fetch: it decides the PC the functional
		// simulator executes (redirect on rollback/misprediction would go
		// here).
		rec.PC = pc
		d.x.StepCall(d.fetch, &rec)
		d.x.StepCall(d.decode, &rec)
		info := ooo.InstrInfo{
			PC:    rec.PC,
			Class: int(d.val(&rec, d.class)),
			Src1:  d.idx(&rec, d.src1),
			Src2:  d.idx(&rec, d.src2),
			Dest:  d.idx(&rec, d.dest),
		}
		d.x.StepCall(d.opread, &rec)
		d.x.StepCall(d.execute, &rec)
		info.EA = d.val(&rec, d.ea)
		info.Taken = d.val(&rec, d.taken) != 0
		info.Target = d.val(&rec, d.target)
		info.Nullify = rec.Nullified
		d.x.StepCall(d.memory, &rec)
		d.x.StepCall(d.writeback, &rec)
		d.x.StepCall(d.exception, &rec)
		model.Advance(info)
		if rec.Fault != mach.FaultNone {
			break
		}
		pc = rec.NextPC
		n++
	}
	r := &Result{Org: "timing-directed", Cycles: model.Cycles(), OoO: model.Stats}
	e.finish(r)
	return r, nil
}

// BugFn optionally corrupts the timing simulator's architectural state
// after an instruction executes (modeling a timing-model functionality
// bug). It returns true when it injected a corruption.
type BugFn func(seq uint64, m *mach.Machine, rec *core.Record) bool

// RunTimingFirst runs the timing-first organization (§II-D): the timing
// simulator performs functional behaviour itself (and may be wrong); a
// one-call/min-detail functional simulator checks it each instruction and
// repairs architectural state on a mismatch, counting corrections.
func RunTimingFirst(i *isa.ISA, prog *asm.Program, budget uint64, bug BugFn) (*Result, error) {
	timingSim, err := core.Synthesize(i.Spec, "one_all", core.Options{})
	if err != nil {
		return nil, err
	}
	checkSim, err := core.Synthesize(i.Spec, "one_min", core.Options{})
	if err != nil {
		return nil, err
	}
	// The timing side executes the program; the checker executes the same
	// program on its own machine.
	eT := newEnv(i, prog)
	eC := newEnv(i, prog)
	xT := timingSim.NewExec(eT.m)
	xC := checkSim.NewExec(eC.m)
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), timingSim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	var recT, recC core.Record
	r := &Result{Org: "timing-first"}
	for seq := uint64(0); !eT.m.Halted && seq < budget; seq++ {
		okT := xT.ExecOne(&recT)
		model.Consume(&recT)
		if bug != nil {
			bug(seq, eT.m, &recT)
		}
		xC.ExecOne(&recC)
		if same, _ := eT.m.RegsEqual(eC.m); !same {
			// Mismatch: flush the pipeline and reload architectural state
			// from the functional simulator (TFsim-style recovery).
			r.Mismatches++
			eT.m.CopyRegs(eC.m)
			model.Stats.Cycles += uint64(pipeline.DefaultConfig().BranchPenalty * 3)
		}
		if !okT {
			break
		}
	}
	r.Cycles = model.Stats.Cycles
	r.Pipeline = model.Stats
	eT.finish(r)
	// Exit state comes from the checker when the timing side diverged at
	// the end; normally they agree.
	if !eT.m.Halted && eC.m.Halted {
		r.Halted, r.ExitCode = true, eC.m.ExitCode
	}
	return r, nil
}

// VerifyFn lets the timing side of a speculative functional-first
// simulator declare that the functional simulator's execution of a record
// diverged from the timing simulator's view (e.g. a memory-order
// difference). It receives the simulated machine (the timing simulator's
// authoritative memory view). Returning a non-nil override asks for
// re-execution with the first load of that record seeing the override
// value.
type VerifyFn func(seq uint64, m *mach.Machine, rec *core.Record) (override *uint64)

// RunSpecFunctionalFirst runs the speculative functional-first
// organization (§II-E): the functional simulator runs ahead producing a
// speculative stream (speculation-enabled interface); when the timing
// simulator detects a divergence it commands a rollback and the functional
// simulator re-executes from the violating instruction with the corrected
// load value.
func RunSpecFunctionalFirst(i *isa.ISA, prog *asm.Program, budget uint64, window int, verify VerifyFn) (*Result, error) {
	sim, err := core.Synthesize(i.Spec, "one_decode_spec", core.Options{})
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), sim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	e := newEnv(i, prog)
	x := sim.NewExec(e.m)
	if window <= 0 {
		window = 64
	}
	type slot struct {
		mark    mach.Mark
		pc      uint64
		instret uint64
		rec     core.Record
	}
	win := make([]slot, window)
	r := &Result{Org: "spec-functional-first"}
	seq := uint64(0)
	for !e.m.Halted && e.m.Instret < budget {
		// Run-ahead: fill a speculative window.
		n := 0
		for ; n < window && !e.m.Halted; n++ {
			win[n].mark = e.m.Journal.Mark()
			win[n].pc = e.m.PC
			win[n].instret = e.m.Instret
			if !x.ExecOne(&win[n].rec) {
				n++
				break
			}
		}
		// Timing consumes and verifies the window.
		redo := -1
		var override uint64
		for j := 0; j < n; j++ {
			if verify != nil {
				if ov := verify(seq+uint64(j), e.m, &win[j].rec); ov != nil {
					redo, override = j, *ov
					break
				}
			}
			model.Consume(&win[j].rec)
		}
		if redo < 0 {
			e.m.Journal.Commit(e.m.Journal.Mark())
			seq += uint64(n)
			continue
		}
		// Rollback to the violating instruction and re-execute it with the
		// corrected load value; subsequent instructions re-execute
		// normally on the repaired state.
		r.Rollbacks++
		e.m.Journal.Rollback(e.m, win[redo].mark)
		e.m.PC = win[redo].pc
		e.m.Halted = false
		e.m.Instret = win[redo].instret
		seq += uint64(redo)
		first := true
		e.m.LoadHook = func(addr uint64, size int, val uint64) uint64 {
			if first {
				first = false
				return override
			}
			return val
		}
		ok := x.ExecOne(&win[redo].rec)
		e.m.LoadHook = nil
		model.Consume(&win[redo].rec)
		seq++
		if !ok {
			break
		}
	}
	r.Cycles = model.Stats.Cycles
	r.Pipeline = model.Stats
	e.finish(r)
	return r, nil
}

// RunSampled runs SMARTS-style sampling (§I, [7]): short detailed windows
// through the Step/All interface alternate with long fast-forward phases
// through the Block/Min interface — the paper's motivating case for one
// simulator carrying multiple interfaces at different levels of detail.
func RunSampled(i *isa.ISA, prog *asm.Program, budget, detailed, fastfwd uint64) (*Result, error) {
	e := newEnv(i, prog)
	d, err := newStepDriver(i, e.m, "step_all")
	if err != nil {
		return nil, err
	}
	ffSim, err := core.Synthesize(i.Spec, "block_min", core.Options{})
	if err != nil {
		return nil, err
	}
	ffExec := ffSim.NewExec(e.m)
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model := ooo.New(ooo.DefaultConfig(), hier, bpred.NewGShare(12, 8))
	r := &Result{Org: "sampled"}
	var rec core.Record
	for !e.m.Halted && e.m.Instret < budget {
		// Detailed window.
		for k := uint64(0); k < detailed && !e.m.Halted; k++ {
			rec.PC = e.m.PC
			for ep := 0; ep < len(d.sim.BS.Entrypoints); ep++ {
				d.x.StepCall(ep, &rec)
			}
			info := ooo.InstrInfo{
				PC:     rec.PC,
				Class:  int(d.val(&rec, d.class)),
				Src1:   d.idx(&rec, d.src1),
				Src2:   d.idx(&rec, d.src2),
				Dest:   d.idx(&rec, d.dest),
				EA:     d.val(&rec, d.ea),
				Taken:  d.val(&rec, d.taken) != 0,
				Target: d.val(&rec, d.target),
			}
			info.Nullify = rec.Nullified
			model.Advance(info)
			if rec.Fault != mach.FaultNone {
				break
			}
		}
		// Fast-forward phase: minimal detail, block at a time.
		target := e.m.Instret + fastfwd
		var batch core.Batch
		for !e.m.Halted && e.m.Instret < target {
			before := e.m.Instret
			if !ffExec.ExecBlock(&batch) {
				break
			}
			r.FFInstrs += e.m.Instret - before
		}
	}
	r.Cycles = model.Cycles()
	r.OoO = model.Stats
	e.finish(r)
	return r, nil
}

// spoolRecords is the trace-driven organization's segment length: how many
// records the spool holds before they are replayed into the timing model.
// It bounds the spool's memory; the timing model sees the same stream
// whatever its value.
const spoolRecords = 1024

// RunTraceDriven is the classic trace-driven flavour of functional-first
// (§II-B: "the instruction stream could even be written to storage and
// then fed to the timing simulator or multiple timing simulators"): the
// functional simulator writes the record stream through internal/trace,
// and the timing model replays it from the serialized form. The stream is
// spooled in segments of spoolRecords records through one reused buffer:
// record a segment, replay it, repeat. The functional simulator never
// reacts to the timing model, so interleaving the two phases this way is
// indistinguishable from recording the whole stream first.
func RunTraceDriven(i *isa.ISA, prog *asm.Program, budget uint64) (*Result, error) {
	sim, err := core.Synthesize(i.Spec, "one_decode", core.Options{})
	if err != nil {
		return nil, err
	}
	hier, err := cache.DefaultHierarchy()
	if err != nil {
		return nil, err
	}
	model, err := pipeline.New(pipeline.DefaultConfig(), sim.Layout, hier, bpred.NewBimodal(12))
	if err != nil {
		return nil, err
	}
	e := newEnv(i, prog)
	x := sim.NewExec(e.m)

	var spool bytes.Buffer
	w, err := trace.NewWriter(&spool, sim.Layout)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(&spool)
	if err != nil {
		return nil, err
	}
	var rec, replay core.Record
	for more := true; more; {
		// Record one segment.
		for n := 0; n < spoolRecords; n++ {
			if e.m.Halted || e.m.Instret >= budget {
				more = false
				break
			}
			ok := x.ExecOne(&rec)
			if err := w.Write(&rec); err != nil {
				return nil, err
			}
			if !ok {
				more = false
				break
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		// Replay it into the timing model (no functional simulator
		// involved — the stream is self-contained). Draining the spool
		// empties it, so the next segment reuses its storage.
		for {
			if err := rd.Read(&replay); err != nil {
				if err == io.EOF {
					break
				}
				return nil, err
			}
			model.Consume(&replay)
		}
	}
	r := &Result{Org: "trace-driven", Cycles: model.Stats.Cycles, Pipeline: model.Stats}
	e.finish(r)
	return r, nil
}
