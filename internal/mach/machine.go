package mach

import "fmt"

// SpaceDef describes one architectural register space (e.g. the integer
// register file, or a control-register file holding flags).
type SpaceDef struct {
	Name    string
	Count   int
	Width   int // register width in bits (<= 64)
	ZeroReg int // index of a hardwired-zero register, or -1
}

// Space is a live register file inside a Machine.
type Space struct {
	Def  SpaceDef
	Vals []uint64

	index uint16 // position in Machine.Spaces, named by journal entries
}

// Read returns the value of register i (the hardwired zero register always
// reads as zero).
func (s *Space) Read(i int) uint64 {
	if i == s.Def.ZeroReg {
		return 0
	}
	return s.Vals[i]
}

// Write sets register i; writes to the hardwired zero register are dropped.
func (s *Space) Write(i int, v uint64) {
	if i == s.Def.ZeroReg {
		return
	}
	s.Vals[i] = v
}

// SyscallFn is invoked when simulated code executes the OS-entry
// instruction. It may mutate the machine (registers, memory, halt state).
type SyscallFn func(m *Machine)

// LoadHookFn lets a timing simulator observe or override the value returned
// by a memory load (the mechanism behind timing-directed memory control and
// speculative functional-first recovery, §II-C/§II-E of the paper).
type LoadHookFn func(addr uint64, size int, val uint64) uint64

// Machine is one hardware context: architectural registers plus a reference
// to (possibly shared) memory. Multiple Machines sharing one Memory model a
// multicore.
type Machine struct {
	CtxID  int
	PC     uint64
	Mem    *Memory
	Spaces []*Space
	byName map[string]*Space

	// Halted and ExitCode are set when the simulated program exits.
	Halted   bool
	ExitCode int

	// Syscall handles OS-entry instructions; nil means OS entry raises
	// FaultIllegal.
	Syscall SyscallFn
	// LoadHook, when non-nil, filters every memory load value.
	LoadHook LoadHookFn

	// Journal records architectural writes for rollback when speculation
	// support is enabled in the active buildset.
	Journal Journal
	// JournalOn is toggled by the synthesized simulator per buildset.
	JournalOn bool

	// Instret counts retired instructions.
	Instret uint64
}

// NewMachine builds a machine with the given register spaces over mem.
func NewMachine(mem *Memory, defs []SpaceDef) *Machine {
	m := &Machine{Mem: mem, byName: make(map[string]*Space, len(defs))}
	for i, d := range defs {
		s := &Space{Def: d, Vals: make([]uint64, d.Count), index: uint16(i)}
		m.Spaces = append(m.Spaces, s)
		m.byName[d.Name] = s
	}
	return m
}

// UnknownSpaceError reports a lookup of a register space the machine does
// not have (for example, a machine built from a different spec than the
// simulator driving it).
type UnknownSpaceError struct {
	Name string
}

func (e *UnknownSpaceError) Error() string {
	return fmt.Sprintf("mach: unknown register space %q", e.Name)
}

// Space returns the register space with the given name. Unknown names
// return a *UnknownSpaceError instead of panicking, so callers handed a
// machine from outside (user code, a different spec) can fail gracefully.
func (m *Machine) Space(name string) (*Space, error) {
	s := m.byName[name]
	if s == nil {
		return nil, &UnknownSpaceError{Name: name}
	}
	return s, nil
}

// MustSpace is Space for statically-known names (tests, examples, and
// tools addressing the spec they themselves loaded); it panics on unknown
// names. Code receiving machines from callers should use Space instead.
func (m *Machine) MustSpace(name string) *Space {
	s := m.byName[name]
	if s == nil {
		panic((&UnknownSpaceError{Name: name}).Error())
	}
	return s
}

// Halt marks the machine as exited with the given code.
func (m *Machine) Halt(code int) {
	m.Halted = true
	m.ExitCode = code
}

// LoadValue performs an architectural load, applying the load hook.
func (m *Machine) LoadValue(addr uint64, size int) (uint64, Fault) {
	v, f := m.Mem.Load(addr, size)
	if f == FaultNone && m.LoadHook != nil {
		v = m.LoadHook(addr, size, v)
	}
	return v, f
}

// StoreValue performs an architectural store, journaling the old bytes when
// speculation support is active.
func (m *Machine) StoreValue(addr uint64, val uint64, size int) Fault {
	if m.JournalOn {
		old, f := m.Mem.Load(addr, size)
		if f != FaultNone {
			return f
		}
		m.Journal.logMem(addr, old, size)
	}
	return m.Mem.Store(addr, val, size)
}

// WriteReg performs an architectural register write through space s,
// journaling the old value when speculation support is active.
func (m *Machine) WriteReg(s *Space, idx int, val uint64) {
	if idx == s.Def.ZeroReg {
		return
	}
	if m.JournalOn {
		m.Journal.logReg(s, idx)
	}
	s.Vals[idx] = val
}

// SetPC moves the architectural PC, journaling when speculation is active.
func (m *Machine) SetPC(pc uint64) {
	if m.JournalOn {
		m.Journal.logPC(m.PC)
	}
	m.PC = pc
}

// Snapshot captures the architectural register state (not memory) for
// checker-style comparisons (timing-first organization).
type Snapshot struct {
	PC     uint64
	Spaces [][]uint64
}

// Snapshot copies the current architectural register state.
func (m *Machine) Snapshot() Snapshot {
	sn := Snapshot{PC: m.PC, Spaces: make([][]uint64, len(m.Spaces))}
	for i, s := range m.Spaces {
		sn.Spaces[i] = append([]uint64(nil), s.Vals...)
	}
	return sn
}

// Restore overwrites the architectural register state from a snapshot.
func (m *Machine) Restore(sn Snapshot) {
	m.PC = sn.PC
	for i, s := range m.Spaces {
		copy(s.Vals, sn.Spaces[i])
	}
}

// Equal reports whether two snapshots are architecturally identical and, if
// not, a description of the first difference.
func (sn Snapshot) Equal(o Snapshot, names []string) (bool, string) {
	return diffRegs(sn.PC, o.PC, len(sn.Spaces),
		func(i int) ([]uint64, []uint64) { return sn.Spaces[i], o.Spaces[i] },
		func(i int) string {
			if i < len(names) {
				return names[i]
			}
			return fmt.Sprintf("space%d", i)
		})
}

// RegsEqual compares the architectural register state of m and o — the PC
// and every register space — in place. It checks exactly what
// Snapshot.Equal checks on their snapshots, without copying or allocating
// while they agree; the first difference is described with the spaces'
// definition names. Both machines must come from the same spec.
func (m *Machine) RegsEqual(o *Machine) (bool, string) {
	return diffRegs(m.PC, o.PC, len(m.Spaces),
		func(i int) ([]uint64, []uint64) { return m.Spaces[i].Vals, o.Spaces[i].Vals },
		func(i int) string { return m.Spaces[i].Def.Name })
}

// CopyRegs overwrites m's architectural register state (PC and every
// register space, not memory) with src's, in place: Restore from a machine
// rather than a snapshot. Both machines must come from the same spec.
func (m *Machine) CopyRegs(src *Machine) {
	m.PC = src.PC
	for i, s := range m.Spaces {
		copy(s.Vals, src.Spaces[i].Vals)
	}
}

// diffRegs is the one register-state comparison behind Snapshot.Equal and
// Machine.RegsEqual: two PCs, then n register spaces fetched pairwise by
// vals, stopping at the first difference, which it describes using name for
// the space.
func diffRegs(pcA, pcB uint64, n int, vals func(i int) (a, b []uint64), name func(i int) string) (bool, string) {
	if pcA != pcB {
		return false, fmt.Sprintf("pc: %#x vs %#x", pcA, pcB)
	}
	for i := 0; i < n; i++ {
		a, b := vals(i)
		for j := range a {
			if a[j] != b[j] {
				return false, fmt.Sprintf("%s[%d]: %#x vs %#x", name(i), j, a[j], b[j])
			}
		}
	}
	return true, ""
}
