package faultinj

import (
	"bytes"
	"fmt"
	"sort"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// Divergence describes the first point where a faulted-then-recovered run
// differed from the clean reference run. A non-nil Divergence is a
// recovery-correctness failure: the injected fault leaked architectural
// state past its recovery protocol.
type Divergence struct {
	// Instret is the faulted run's retired-instruction count when the
	// divergence was detected.
	Instret uint64
	// RefPC and GotPC are the reference and faulted PCs at that point.
	RefPC, GotPC uint64
	// Detail names the first differing piece of state (register, memory
	// address, output byte, exit status).
	Detail string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("diverged at instret %d (ref pc %#x, got pc %#x): %s",
		d.Instret, d.RefPC, d.GotPC, d.Detail)
}

// injectOpts are test knobs that deliberately break a recovery protocol so
// the differential checker can be shown to catch the leak. All-zero in
// production campaigns.
type injectOpts struct {
	// skipRecovery leaves the corrupted state in place: no rollback for
	// ClassLoad, no instruction-bit restore for ClassFetch.
	skipRecovery bool
	// skipRestore (ClassSquash) rolls the journal back but "forgets" to
	// restore PC/Instret — the classic half-finished squash bug.
	skipRestore bool
}

// runState is one machine wired to one program under one synthesized
// simulator: the unit both the faulted run and its reference run are built
// from. Machines never share memory here — differential comparison needs
// two independent worlds.
type runState struct {
	i    *isa.ISA
	prog *asm.Program
	sim  *core.Sim
	m    *mach.Machine
	emu  *sysemu.Emulator
	x    *core.Exec
}

func newRun(i *isa.ISA, prog *asm.Program, sim *core.Sim) *runState {
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	prog.LoadInto(m)
	return &runState{i: i, prog: prog, sim: sim, m: m, emu: emu, x: sim.NewExec(m)}
}

// runAll drives the machine to completion under an instruction budget.
func (r *runState) runAll(budget uint64) error {
	for !r.m.Halted {
		left := budget - r.m.Instret
		if r.m.Instret >= budget || left == 0 {
			return fmt.Errorf("faultinj: run exceeded %d-instruction budget at pc %#x", budget, r.m.PC)
		}
		if n := r.x.Run(left); n == 0 && !r.m.Halted {
			return fmt.Errorf("faultinj: run stuck at pc %#x", r.m.PC)
		}
	}
	return nil
}

// step executes one instruction, returning the published record and whether
// execution can continue (false on halt or fault).
func (r *runState) step() (core.Record, bool) {
	var rec core.Record
	ok := r.x.ExecOne(&rec)
	return rec, ok
}

// pickEvents chooses `want` distinct injection points (in retired-
// instruction units) strictly inside a run of total length, sorted
// ascending. Short runs yield fewer events.
func pickEvents(rng *RNG, total uint64, want int) []uint64 {
	if total < 2 || want <= 0 {
		return nil
	}
	seen := map[uint64]bool{}
	for i := 0; i < want*4 && len(seen) < want; i++ {
		seen[1+uint64(rng.Intn(int(total-1)))] = true
	}
	out := make([]uint64, 0, len(seen))
	for ev := range seen {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quickCompare checks the cheap per-step lockstep invariants: same PC, same
// retirement count.
func quickCompare(got, ref *runState) *Divergence {
	if got.m.Instret != ref.m.Instret {
		return &Divergence{Instret: got.m.Instret, RefPC: ref.m.PC, GotPC: got.m.PC,
			Detail: fmt.Sprintf("instret: ref %d vs got %d", ref.m.Instret, got.m.Instret)}
	}
	if got.m.PC != ref.m.PC {
		return &Divergence{Instret: got.m.Instret, RefPC: ref.m.PC, GotPC: got.m.PC,
			Detail: "pc mismatch"}
	}
	return nil
}

// finalCompare performs the full end-state differential: halt status, exit
// code, retirement count, every register space, captured output, and the
// union of all mapped memory pages.
func finalCompare(got, ref *runState) *Divergence {
	div := func(detail string) *Divergence {
		return &Divergence{Instret: got.m.Instret, RefPC: ref.m.PC, GotPC: got.m.PC, Detail: detail}
	}
	if got.m.Halted != ref.m.Halted {
		return div(fmt.Sprintf("halted: ref %v vs got %v", ref.m.Halted, got.m.Halted))
	}
	if got.m.ExitCode != ref.m.ExitCode {
		return div(fmt.Sprintf("exit code: ref %d vs got %d", ref.m.ExitCode, got.m.ExitCode))
	}
	if got.m.Instret != ref.m.Instret {
		return div(fmt.Sprintf("instret: ref %d vs got %d", ref.m.Instret, got.m.Instret))
	}
	if ok, detail := ref.m.RegsEqual(got.m); !ok {
		return div("register " + detail)
	}
	if !bytes.Equal(got.emu.Stdout.Bytes(), ref.emu.Stdout.Bytes()) {
		return div(fmt.Sprintf("stdout: ref %q vs got %q", ref.emu.Stdout.Bytes(), got.emu.Stdout.Bytes()))
	}
	if detail := memDiff(ref.m.Mem, got.m.Mem); detail != "" {
		return div(detail)
	}
	return nil
}

// memDiff walks the union of both memories' mapped pages and reports the
// first differing byte, or "" when identical.
func memDiff(ref, got *mach.Memory) string {
	bases := map[uint64]bool{}
	for _, b := range ref.PageBases() {
		bases[b] = true
	}
	for _, b := range got.PageBases() {
		bases[b] = true
	}
	sorted := make([]uint64, 0, len(bases))
	for b := range bases {
		sorted = append(sorted, b)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	size := mach.PageSize()
	for _, base := range sorted {
		rb := ref.ReadBytes(base, size)
		gb := got.ReadBytes(base, size)
		if bytes.Equal(rb, gb) {
			continue
		}
		for k := range rb {
			if rb[k] != gb[k] {
				return fmt.Sprintf("mem[%#x]: ref %#x vs got %#x", base+uint64(k), rb[k], gb[k])
			}
		}
	}
	return ""
}

// stepRef advances the reference machine by one instruction, failing if the
// clean run faults (which would mean the reference itself is broken).
func stepRef(ref *runState) error {
	if ref.m.Halted {
		return nil
	}
	if _, ok := ref.step(); !ok && !ref.m.Halted {
		return fmt.Errorf("faultinj: reference run faulted at pc %#x", ref.m.PC)
	}
	ref.m.Journal.Reset()
	return nil
}

// --- ClassLoad ---------------------------------------------------------

// injectLoads runs got in lockstep with ref under a speculation buildset.
// At each event it arms a one-shot LoadHook that flips one bit of the next
// loaded value, lets the corrupted instruction execute, rolls it back
// through the journal, re-executes it cleanly, and verifies lockstep. The
// invariant is total transparency: the final states must be identical.
func injectLoads(got, ref *runState, rng *RNG, events []uint64, budget uint64, opts injectOpts) (injected, recovered int, div *Divergence, err error) {
	ei := 0
	for !got.m.Halted {
		if got.m.Instret >= budget {
			return injected, recovered, nil, fmt.Errorf("faultinj: load campaign exceeded %d-instruction budget", budget)
		}
		if ei < len(events) && got.m.Instret >= events[ei] {
			mark := got.m.Journal.Mark()
			pc, instret := got.m.PC, got.m.Instret
			fired := false
			bit := uint(rng.Intn(64))
			got.m.LoadHook = func(addr uint64, size int, val uint64) uint64 {
				if fired {
					return val
				}
				fired = true
				return val ^ (1 << (bit % uint(size*8)))
			}
			_, ok := got.step()
			got.m.LoadHook = nil
			if !fired {
				// The instruction performed no load; it executed cleanly, so
				// mirror it in the reference and keep the event armed for
				// the next instruction.
				if !ok && !got.m.Halted {
					return injected, recovered, nil, fmt.Errorf("faultinj: unexpected fault at pc %#x", got.m.PC)
				}
				if err := stepRef(ref); err != nil {
					return injected, recovered, nil, err
				}
				if d := quickCompare(got, ref); d != nil {
					return injected, recovered, d, nil
				}
				got.m.Journal.Commit(got.m.Journal.Mark())
				continue
			}
			injected++
			ei++
			if !opts.skipRecovery {
				// Squash the corrupted instruction and replay it cleanly —
				// the speculative functional-first recovery protocol.
				got.m.Journal.Rollback(got.m, mark)
				got.m.PC = pc
				got.m.Instret = instret
				got.m.Halted = false
				got.m.ExitCode = 0
				if _, ok := got.step(); !ok && !got.m.Halted {
					return injected, recovered, nil, fmt.Errorf("faultinj: replay faulted at pc %#x", got.m.PC)
				}
				recovered++
			}
			got.m.Journal.Commit(got.m.Journal.Mark())
			if err := stepRef(ref); err != nil {
				return injected, recovered, nil, err
			}
			if d := quickCompare(got, ref); d != nil {
				return injected, recovered, d, nil
			}
			continue
		}
		if _, ok := got.step(); !ok && !got.m.Halted {
			return injected, recovered, nil, fmt.Errorf("faultinj: unexpected fault at pc %#x", got.m.PC)
		}
		got.m.Journal.Commit(got.m.Journal.Mark())
		if err := stepRef(ref); err != nil {
			return injected, recovered, nil, err
		}
		if d := quickCompare(got, ref); d != nil {
			return injected, recovered, d, nil
		}
	}
	// Drain the reference to the same retirement count (it normally already
	// is there; a corrupted-but-unrecovered run may halt early).
	for !ref.m.Halted && ref.m.Instret < got.m.Instret {
		if err := stepRef(ref); err != nil {
			return injected, recovered, nil, err
		}
	}
	return injected, recovered, finalCompare(got, ref), nil
}

// --- ClassFetch --------------------------------------------------------

// corruptWord searches for a corruption of instruction bits that the
// decoder rejects, trying single-bit flips first, then pairs. The search
// order is seeded so campaigns stay deterministic.
func corruptWord(sim *core.Sim, bits uint32, rng *RNG) (uint32, bool) {
	start := uint(rng.Intn(32))
	for k := uint(0); k < 32; k++ {
		c := bits ^ (1 << ((start + k) % 32))
		if !sim.Decodes(c) {
			return c, true
		}
	}
	for a := uint(0); a < 32; a++ {
		for b := a + 1; b < 32; b++ {
			c := bits ^ (1 << a) ^ (1 << b)
			if !sim.Decodes(c) {
				return c, true
			}
		}
	}
	return 0, false
}

// injectFetches corrupts instruction memory at each event so decode fails,
// asserts the faultUnit contract (FaultIllegal is raised, the machine halts
// with exit 128+fault, and the faulting instruction does not retire), then
// restores the bits and resumes. The store into the code page also bumps
// the page generation, so the corruption is what the translation caches
// refetch — a stale cached unit executing the old bits would be a miss of
// its own.
func injectFetches(got, ref *runState, rng *RNG, events []uint64, budget uint64, opts injectOpts) (injected, faults, recovered int, div *Divergence, err error) {
	size := int(got.i.Spec.InstrSize)
	ei := 0
	for !got.m.Halted {
		if got.m.Instret >= budget {
			return injected, faults, recovered, nil, fmt.Errorf("faultinj: fetch campaign exceeded %d-instruction budget", budget)
		}
		if ei < len(events) && got.m.Instret >= events[ei] {
			ei++
			pc := got.m.PC
			word, f := got.m.Mem.Load(pc, size)
			if f != mach.FaultNone {
				return injected, faults, recovered, nil, fmt.Errorf("faultinj: cannot read code at pc %#x: %v", pc, f)
			}
			corrupt, found := corruptWord(got.sim, uint32(word), rng)
			if !found {
				continue // every nearby encoding decodes; skip this event
			}
			if f := got.m.Mem.Store(pc, uint64(corrupt), size); f != mach.FaultNone {
				return injected, faults, recovered, nil, fmt.Errorf("faultinj: cannot corrupt code at pc %#x: %v", pc, f)
			}
			injected++
			before := got.m.Instret
			rec, ok := got.step()
			// The exception action runs halt(128+fault), so the published
			// record carries FaultHalt; the exit code is what pins the
			// original fault to FaultIllegal.
			wantExit := 128 + int(mach.FaultIllegal)
			switch {
			case ok || rec.Fault == mach.FaultNone:
				return injected, faults, recovered, nil, fmt.Errorf(
					"faultinj: corrupted instruction at pc %#x raised %v, want a fault", pc, rec.Fault)
			case !got.m.Halted || got.m.ExitCode != wantExit:
				return injected, faults, recovered, nil, fmt.Errorf(
					"faultinj: illegal instruction halted=%v exit=%d, want halted with exit %d",
					got.m.Halted, got.m.ExitCode, wantExit)
			case got.m.Instret != before || got.m.PC != pc:
				return injected, faults, recovered, nil, fmt.Errorf(
					"faultinj: faulting instruction retired (pc %#x->%#x, instret %d->%d)",
					pc, got.m.PC, before, got.m.Instret)
			}
			faults++
			if opts.skipRecovery {
				break // leave the machine dead on the corrupted instruction
			}
			if f := got.m.Mem.Store(pc, word, size); f != mach.FaultNone {
				return injected, faults, recovered, nil, fmt.Errorf("faultinj: cannot restore code at pc %#x: %v", pc, f)
			}
			got.m.Halted = false
			got.m.ExitCode = 0
			if _, ok := got.step(); !ok && !got.m.Halted {
				return injected, faults, recovered, nil, fmt.Errorf("faultinj: replay after restore faulted at pc %#x", got.m.PC)
			}
			recovered++
			if err := stepRef(ref); err != nil {
				return injected, faults, recovered, nil, err
			}
			if d := quickCompare(got, ref); d != nil {
				return injected, faults, recovered, d, nil
			}
			continue
		}
		if _, ok := got.step(); !ok && !got.m.Halted {
			return injected, faults, recovered, nil, fmt.Errorf("faultinj: unexpected fault at pc %#x", got.m.PC)
		}
		if err := stepRef(ref); err != nil {
			return injected, faults, recovered, nil, err
		}
		if d := quickCompare(got, ref); d != nil {
			return injected, faults, recovered, d, nil
		}
	}
	for !ref.m.Halted && ref.m.Instret < got.m.Instret {
		if err := stepRef(ref); err != nil {
			return injected, faults, recovered, nil, err
		}
	}
	return injected, faults, recovered, finalCompare(got, ref), nil
}

// --- ClassSquash -------------------------------------------------------

// injectSquashes speculatively executes a short window past each event and
// squashes it with Journal.Rollback. The reference is not advanced during
// the window, so any state the rollback fails to undo shows up as a
// lockstep divergence when the squashed instructions re-execute. Kernel
// programs perform no I/O before their exit call, which keeps the windows
// side-effect free outside the journal's reach; the stdout length check
// enforces that assumption.
func injectSquashes(got, ref *runState, rng *RNG, events []uint64, budget uint64, opts injectOpts) (injected, recovered int, div *Divergence, err error) {
	ei := 0
	for !got.m.Halted {
		if got.m.Instret >= budget {
			return injected, recovered, nil, fmt.Errorf("faultinj: squash campaign exceeded %d-instruction budget", budget)
		}
		if ei < len(events) && got.m.Instret >= events[ei] {
			ei++
			mark := got.m.Journal.Mark()
			pc, instret := got.m.PC, got.m.Instret
			outLen := got.emu.Stdout.Len()
			window := 1 + rng.Intn(8)
			for w := 0; w < window && !got.m.Halted; w++ {
				if _, ok := got.step(); !ok {
					break // speculated into a fault or the exit; squash undoes it
				}
			}
			if got.emu.Stdout.Len() != outLen {
				return injected, recovered, nil, fmt.Errorf(
					"faultinj: speculative window at pc %#x performed I/O; squash cannot undo it", pc)
			}
			injected++
			got.m.Journal.Rollback(got.m, mark)
			if !opts.skipRestore {
				got.m.PC = pc
				got.m.Instret = instret
				got.m.Halted = false
				got.m.ExitCode = 0
				recovered++
			}
			if d := quickCompare(got, ref); d != nil {
				return injected, recovered, d, nil
			}
			continue
		}
		if _, ok := got.step(); !ok && !got.m.Halted {
			return injected, recovered, nil, fmt.Errorf("faultinj: unexpected fault at pc %#x", got.m.PC)
		}
		got.m.Journal.Commit(got.m.Journal.Mark())
		if err := stepRef(ref); err != nil {
			return injected, recovered, nil, err
		}
		if d := quickCompare(got, ref); d != nil {
			return injected, recovered, d, nil
		}
	}
	for !ref.m.Halted && ref.m.Instret < got.m.Instret {
		if err := stepRef(ref); err != nil {
			return injected, recovered, nil, err
		}
	}
	return injected, recovered, finalCompare(got, ref), nil
}

// --- ClassCodeGen ------------------------------------------------------

// injectCodeGen runs under the block interface and, at each event, rewrites
// a handful of code words with their own values. The stores are
// semantically invisible but bump the page store-generation counters,
// invalidating every cached translation of those pages — an invalidation
// storm mid-run. The run must end architecturally identical to the
// undisturbed reference, retirement count included.
func injectCodeGen(got, ref *runState, rng *RNG, events []uint64, budget uint64) (injected int, div *Divergence, err error) {
	var text *asm.Segment
	for k := range got.prog.Segments {
		if got.prog.Segments[k].Name == ".text" {
			text = &got.prog.Segments[k]
		}
	}
	size := int(got.i.Spec.InstrSize)
	if text == nil || len(text.Data) < size {
		return 0, nil, fmt.Errorf("faultinj: program has no text segment")
	}
	words := len(text.Data) / size
	for _, ev := range events {
		if got.m.Halted {
			break
		}
		for !got.m.Halted && got.m.Instret < ev {
			if got.m.Instret >= budget {
				return injected, nil, fmt.Errorf("faultinj: codegen campaign exceeded %d-instruction budget", budget)
			}
			if n := got.x.Run(ev - got.m.Instret); n == 0 && !got.m.Halted {
				return injected, nil, fmt.Errorf("faultinj: run stuck at pc %#x", got.m.PC)
			}
		}
		if got.m.Halted {
			break
		}
		for k := 0; k < 4; k++ {
			addr := text.Addr + uint64(rng.Intn(words)*size)
			w, f := got.m.Mem.Load(addr, size)
			if f != mach.FaultNone {
				return injected, nil, fmt.Errorf("faultinj: cannot read code at %#x: %v", addr, f)
			}
			if f := got.m.Mem.Store(addr, w, size); f != mach.FaultNone {
				return injected, nil, fmt.Errorf("faultinj: cannot touch code at %#x: %v", addr, f)
			}
		}
		injected++
	}
	if err := got.runAll(budget); err != nil {
		return injected, nil, err
	}
	return injected, finalCompare(got, ref), nil
}

// --- ClassSyscall ------------------------------------------------------

// sysRetrySource is a hand-written alpha64 program whose every system call
// sits in a retry loop: writes resume at the unwritten suffix after a short
// or denied write, reads refill the unread suffix, and the heap request
// repeats until the break actually moves. Under any finite fault schedule
// its output, exit code, and result word must match the fault-free run.
const sysRetrySource = `
.text
_start:
    ; write(1, msg, 9) with short/deny retry
    ldah r9, ha(msg)(r31)
    lda  r9, lo(msg)(r9)
    addq r31, 9, r10
wloop:
    beq  r10, wdone
    addq r31, 2, r0
    addq r31, 1, r16
    bis  r9, r9, r17
    bis  r10, r10, r18
    callsys
    addq r0, 1, r11
    beq  r11, wloop
    addq r9, r0, r9
    subq r10, r0, r10
    br   r31, wloop
wdone:
    ; read(0, inbuf, 4) with short/deny retry
    ldah r9, ha(inbuf)(r31)
    lda  r9, lo(inbuf)(r9)
    addq r31, 4, r10
rloop:
    beq  r10, rdone
    addq r31, 3, r0
    bis  r31, r31, r16
    bis  r9, r9, r17
    bis  r10, r10, r18
    callsys
    addq r0, 1, r11
    beq  r11, rloop
    beq  r0, rdone
    addq r9, r0, r9
    subq r10, r0, r10
    br   r31, rloop
rdone:
    ; grow the heap by a page, retrying brk until it moves
    addq r31, 4, r0
    bis  r31, r31, r16
    callsys
    lda  r13, 4096(r0)
bloop:
    addq r31, 4, r0
    bis  r13, r13, r16
    callsys
    subq r0, r13, r11
    bne  r11, bloop
    ; checksum the read bytes into result
    ldah r9, ha(inbuf)(r31)
    lda  r9, lo(inbuf)(r9)
    ldl  r14, 0(r9)
    ldah r15, ha(result)(r31)
    lda  r15, lo(result)(r15)
    stl  r14, 0(r15)
    ; exit(0)
    addq r31, 1, r0
    bis  r31, r31, r16
    callsys

.data
msg:
    .ascii "FAULTINJ\n"
    .align 4
inbuf:
    .space 8
result:
    .word 0
`

// sysRetryStdin is the input both runs consume.
var sysRetryStdin = []byte("ABCD")

// injectSyscalls runs the retry-loop program twice — once clean, once with
// a FaultHook that spends a finite fault budget on short and denied calls —
// and checks that the program's retries fully absorb the faults: identical
// stdout, exit code, and result word. Retirement counts legitimately differ
// (the retries are real instructions), so this class compares outcomes, not
// lockstep state.
func injectSyscalls(got, ref *runState, rng *RNG, faultBudget int, budget uint64) (injected, recovered int, div *Divergence, err error) {
	ref.emu.Stdin = append([]byte(nil), sysRetryStdin...)
	if err := ref.runAll(budget); err != nil {
		return 0, 0, nil, fmt.Errorf("faultinj: clean syscall run: %w", err)
	}
	got.emu.Stdin = append([]byte(nil), sysRetryStdin...)
	remaining := faultBudget
	got.emu.FaultHook = func(num int) sysemu.SyscallFault {
		if remaining <= 0 {
			return sysemu.SysFaultNone
		}
		switch rng.Intn(3) {
		case 0:
			remaining--
			injected++
			return sysemu.SysFaultShort
		case 1:
			remaining--
			injected++
			return sysemu.SysFaultDeny
		default:
			return sysemu.SysFaultNone
		}
	}
	if err := got.runAll(budget); err != nil {
		return injected, recovered, nil, fmt.Errorf("faultinj: faulted syscall run: %w", err)
	}
	got.emu.FaultHook = nil
	div = func() *Divergence {
		d := func(detail string) *Divergence {
			return &Divergence{Instret: got.m.Instret, RefPC: ref.m.PC, GotPC: got.m.PC, Detail: detail}
		}
		if got.m.ExitCode != ref.m.ExitCode {
			return d(fmt.Sprintf("exit code: ref %d vs got %d", ref.m.ExitCode, got.m.ExitCode))
		}
		if !bytes.Equal(got.emu.Stdout.Bytes(), ref.emu.Stdout.Bytes()) {
			return d(fmt.Sprintf("stdout: ref %q vs got %q", ref.emu.Stdout.Bytes(), got.emu.Stdout.Bytes()))
		}
		resAddr, ok := got.prog.Symbols["result"]
		if !ok {
			return d("program has no result symbol")
		}
		rv, _ := ref.m.Mem.Load(resAddr, 4)
		gv, _ := got.m.Mem.Load(resAddr, 4)
		if rv != gv {
			return d(fmt.Sprintf("result word: ref %#x vs got %#x", rv, gv))
		}
		return nil
	}()
	if div == nil {
		recovered = injected
	}
	return injected, recovered, div, nil
}
