package core

import (
	"testing"

	"singlespec/internal/lis"
	"singlespec/internal/mach"
)

// benchProgram is a tight loop: ALU + memory work, decrement, loop branch.
// r9 holds the iteration count.
func benchProgram() []uint32 {
	return []uint32{
		encALU(opADD, 1, 2, 3),
		encALU(opSUB, 3, 1, 4),
		encALU(opXOR, 3, 4, 5),
		encALU(opADD, 5, 2, 6),
		encMEM(opSTW, 6, 10, 0),
		encMEM(opLDW, 7, 10, 0),
		encALU(opADD, 7, 3, 8),
		encALU(opSUB, 9, 11, 9), // r9 -= 1
		encBR(opBEQ, 9, 1),      // r9 == 0: exit loop
		encBR(opBEQ, 15, -10),   // always taken: back to start
		encALU(opHLT, 15, 0, 0),
	}
}

func benchMachine(spec *lis.Spec, iters uint64) *mach.Machine {
	m := loadProgram(spec, benchProgram())
	r := m.MustSpace("r")
	r.Vals[1], r.Vals[2] = 5, 7
	r.Vals[10] = dataBase
	r.Vals[11] = 1
	r.Vals[9] = iters
	return m
}

func benchBuildset(b *testing.B, bs string, opts Options) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, bs, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := benchMachine(spec, 1<<62)
	x := s.NewExec(m)
	b.ResetTimer()
	var n uint64
	for n < uint64(b.N) {
		chunk := uint64(b.N) - n
		if chunk > 65536 {
			chunk = 65536
		}
		n += x.Run(chunk)
		if m.JournalOn {
			// A speculative driver periodically commits, as the orgs and
			// faultinj drivers do; without it the undo log would grow
			// without bound. Committing keeps the journal's chunks, so
			// the loop measures speculation rather than re-allocating
			// the journal every round.
			m.Journal.Commit(m.Journal.Mark())
		}
	}
	b.StopTimer()
	if m.Halted {
		b.Fatal("benchmark loop halted early")
	}
	b.ReportMetric(float64(n)/float64(b.N), "instrs/op")
}

// benchBranchProgram is a dispatch-dominated workload: two single-branch
// basic blocks ping-ponging forever. Every retired instruction is a block
// (or unit) dispatch, so the benchmark isolates the lookup/chaining cost
// the hot path pays before any instruction semantics run.
func benchBranchProgram() []uint32 {
	return []uint32{
		encBR(opBEQ, 15, 1),  // @0: always taken -> @8
		encALU(opHLT, 15, 0, 0),
		encBR(opBEQ, 15, -3), // @8: always taken -> @0
	}
}

func benchDispatch(b *testing.B, bs string) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, bs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchBranchProgram())
	x := s.NewExec(m)
	b.ResetTimer()
	var n uint64
	for n < uint64(b.N) {
		chunk := uint64(b.N) - n
		if chunk > 65536 {
			chunk = 65536
		}
		n += x.Run(chunk)
	}
	b.StopTimer()
	if m.Halted {
		b.Fatal("dispatch loop halted early")
	}
}

// BenchmarkDispatchBlock measures per-block dispatch on the Block/Min
// interface: each block is one branch, so block lookup (and, post-chaining,
// the chain follow) dominates.
func BenchmarkDispatchBlock(b *testing.B) { benchDispatch(b, "block_min") }

// BenchmarkDispatchOne measures per-instruction translated dispatch on the
// One/Min interface over the same branch ping-pong.
func BenchmarkDispatchOne(b *testing.B) { benchDispatch(b, "one_min") }

// BenchmarkFlushLocal measures the cost of dropping the Exec's first-level
// translation caches (the checkpoint-restore path).
func BenchmarkFlushLocal(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "one_min", Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	x.Run(64)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.FlushLocal()
	}
}

// BenchmarkTransUnitSharedHit measures the first-level-miss path of unit
// translation: flush the private cache, then re-resolve one PC through the
// shared cache. This is the path the transUnit double page walk sat on.
func BenchmarkTransUnitSharedHit(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "one_min", Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	x.Run(64) // warm the shared cache
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.FlushLocal()
		if x.transUnit(codeBase) == nil {
			b.Fatal("transUnit returned nil")
		}
	}
}

// BenchmarkPublish measures one record publication at full informational
// detail (the per-instruction store cost of the paper's §V-E analysis).
func BenchmarkPublish(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "one_all", Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	var rec Record
	x.ExecOne(&rec)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.publish(&rec)
	}
}

func BenchmarkToyOneAll(b *testing.B)       { benchBuildset(b, "one_all", Options{}) }
func BenchmarkToyOneDecode(b *testing.B)    { benchBuildset(b, "one_decode", Options{}) }
func BenchmarkToyOneMin(b *testing.B)       { benchBuildset(b, "one_min", Options{}) }
func BenchmarkToyOneAllSpec(b *testing.B)   { benchBuildset(b, "one_all_spec", Options{}) }
func BenchmarkToyStepAll(b *testing.B)      { benchBuildset(b, "step_all", Options{}) }
func BenchmarkToyBlockMin(b *testing.B)     { benchBuildset(b, "block_min", Options{}) }
func BenchmarkToyBlockAll(b *testing.B)     { benchBuildset(b, "block_all", Options{}) }
func BenchmarkToyBlockMinSpec(b *testing.B) { benchBuildset(b, "block_min_spec", Options{}) }
func BenchmarkToyOneMinInterp(b *testing.B) {
	benchBuildset(b, "one_min", Options{NoTranslate: true})
}

// BenchmarkNewExecFirstRun measures the per-job cost of the engine: bind a
// fresh Exec to a machine and run its first 1000 instructions on a warm
// Sim. With -benchmem it shows what each new Exec allocates (first-level
// tables, record values, journal chunks).
func BenchmarkNewExecFirstRun(b *testing.B) {
	for _, bs := range []string{"one_all", "one_all_spec", "step_all", "block_min"} {
		b.Run(bs, func(b *testing.B) {
			spec, err := lis.Parse("toy.lis", toySrc)
			if err != nil {
				b.Fatal(err)
			}
			s, err := Synthesize(spec, bs, Options{})
			if err != nil {
				b.Fatal(err)
			}
			m := benchMachine(spec, 1<<62)
			s.NewExec(m).Run(1000) // warm the shared cache and the data page
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				m.PC = codeBase
				m.Journal.Reset()
				if got := s.NewExec(m).Run(1000); got < 1000 {
					b.Fatalf("ran %d instructions", got)
				}
			}
		})
	}
}

// BenchmarkJournalAppend measures one journaled register write, the
// speculation cost every instruction of a speculative buildset pays per
// architectural write. The journal is committed every 64K entries, as a
// speculative driver would, so chunks are recycled rather than allocated.
func BenchmarkJournalAppend(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	m := spec.NewMachine()
	m.JournalOn = true
	r := m.MustSpace("r")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.WriteReg(r, n&7, uint64(n))
		if m.Journal.Len() == 1<<16 {
			m.Journal.Commit(m.Journal.Mark())
		}
	}
}

// BenchmarkStepCallImportPublish measures the Step interface's per-call
// record traffic: one entrypoint with no work for the instruction (the
// memory step of an ADD), so the call is the import of the record into the
// frame plus the publish back out.
func BenchmarkStepCallImportPublish(b *testing.B) {
	spec, err := lis.Parse("toy.lis", toySrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Synthesize(spec, "step_all", Options{})
	if err != nil {
		b.Fatal(err)
	}
	ep := -1
	for i, e := range s.BS.Entrypoints {
		if e.Name == "ep_memory" {
			ep = i
		}
	}
	m := loadProgram(spec, benchProgram())
	x := s.NewExec(m)
	var rec Record
	rec.PC = m.PC
	for i := 0; i < ep; i++ {
		x.StepCall(i, &rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		x.StepCall(ep, &rec)
	}
}
