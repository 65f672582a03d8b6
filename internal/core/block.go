package core

import (
	"singlespec/internal/lis"
	"singlespec/internal/mach"
)

// The Block interface executes a basic block per call — the engine's
// analogue of the paper's binary-translated functional simulators. Blocks
// are decoded once, each instruction specialized for its fixed PC and
// encoding (operand decode folds to constants, the fall-through next PC is
// a constant), and cached until the code page changes.

// xblock is immutable once buildBlock returns, so — like units — blocks may
// be published in the Sim's shared cache and executed concurrently. A block
// never crosses a 64 KiB page boundary, so one page-generation (or one
// whole-block bits comparison on a shared-cache hit) validates all of it.
type xblock struct {
	startPC uint64
	units   []*unit
}

// ExecBlock executes the basic block at the machine's PC, filling batch.
// Per-instruction records are produced only when the buildset exposes
// information beyond the minimal set (or ForceRecords is set); at minimal
// detail only the block summary is produced. It reports false when the
// machine halted or faulted.
//
// Dispatch is chained: after a block retires, its table slot remembers the
// observed successor (see bslot), so a stable control edge — a loop
// back-branch, a fall-through, a direct call — resolves the next block with
// one epoch compare instead of a table probe plus page-generation walk.
// Links sever automatically when the code-store epoch moves (any store to a
// code page, including rollback of speculative stores) and when FlushLocal
// bumps the table stamp.
func (x *Exec) ExecBlock(batch *Batch) bool {
	batch.Reset()
	m := x.M
	pc := m.PC
	batch.StartPC = pc
	var blk *xblock
	var slot int32
	t := &x.btab
	if last := x.lastB; last >= 0 {
		ls := &t.slots[last]
		if ls.stamp == t.stamp && ls.next != nil && ls.next.startPC == pc &&
			ls.nextEpoch == m.Mem.CodeGen() {
			blk = ls.next
			slot = int32(t.idx(pc))
			x.stats.BlockChainFollows++
		}
	}
	if blk == nil {
		blk, slot = x.transBlock(pc)
		if blk == nil {
			// Fetch fault or undecodable first instruction: let the dynamic
			// path raise it and publish a record if detail requires.
			x.lastB = -1
			rec := batch.next()
			x.execOneDynamic(rec)
			if rec.Fault == mach.FaultNone {
				batch.N++
			} else {
				batch.Fault = rec.Fault
			}
			if !x.sim.emitRecs {
				batch.Recs = batch.Recs[:0]
			}
			batch.Halted = m.Halted
			return batch.Fault == mach.FaultNone && !m.Halted
		}
		// Link the previous block's slot to this one. The link records the
		// epoch blk was just validated under; a follow re-checks it, so a
		// link can never outlive the code it points at. A stale slot (its
		// block was evicted since) still gets the link: follow validity is
		// self-contained in (next, nextEpoch, stamp), independent of
		// which block the slot currently caches. transBlock drops lastB
		// when it grows the table, so last always indexes the live table.
		if last := x.lastB; last >= 0 {
			ls := &t.slots[last]
			if ls.stamp == t.stamp {
				ls.next = blk
				ls.nextEpoch = m.Mem.CodeGen()
				x.stats.BlockChainLinks++
			}
		}
	}
	emit := x.sim.emitRecs
	// The architectural PC and retired-instruction counter are updated once
	// at block exit (nothing observes them mid-block: instruction semantics
	// read the working fields, and budget/watchdog checks run between
	// ExecBlock calls); n counts retired instructions locally.
	n := 0
	for _, u := range blk.units {
		x.pc = u.pc
		x.physPC = u.physPC
		x.nextPC = u.fall
		x.bits = u.bits
		x.instrID = u.id
		x.fault = mach.FaultNone
		x.nullify = false
		// Inline segment dispatch: fault and nullify were just cleared, so
		// the runSegs entry checks cannot fire, and the common path is one
		// closure call plus one combined check per segment. A fault or
		// nullification mid-unit (rare) resumes through runSegs, which
		// handles exception diversion exactly as before.
		segs := u.segs
		for i := range segs {
			segs[i].run(x)
			if x.fault != mach.FaultNone || x.nullify {
				x.runSegs(u, int32(i+1), int32(len(segs)))
				break
			}
		}
		x.work += uint64(u.work)
		if emit {
			x.publish(batch.next())
		}
		if x.fault != mach.FaultNone {
			batch.Fault = x.fault
			batch.Halted = m.Halted
			batch.N = n
			// Faulting (halting) instructions do not retire: the PC stays
			// at the faulting instruction.
			m.PC = u.pc
			m.Instret += uint64(n)
			x.lastB = -1
			return false
		}
		n++
	}
	m.PC = x.nextPC
	m.Instret += uint64(n)
	batch.N = n
	x.lastB = slot
	return true
}

// next returns the next record slot of the batch, reusing capacity (and
// the Vals allocations of previous uses).
func (b *Batch) next() *Record {
	if len(b.Recs) < cap(b.Recs) {
		b.Recs = b.Recs[:len(b.Recs)+1]
	} else {
		b.Recs = append(b.Recs, Record{})
	}
	return &b.Recs[len(b.Recs)-1]
}

// transBlock returns the translated block starting at pc (and the table
// slot now caching it), translating on a miss. A nil block means the first
// instruction cannot be fetched or decoded. Like transUnit, it consults the
// private direct-map table first (epoch compare, then page generation),
// then the Sim's shared cache (validating every unit's bits against this
// machine's memory), and only then builds a fresh block.
func (x *Exec) transBlock(pc uint64) (*xblock, int32) {
	t := &x.btab
	if t.slots == nil {
		t.init(x.sim.Opts.CacheCap)
	}
	mem := x.M.Mem
	i := t.idx(pc)
	s := &t.slots[i]
	if s.stamp == t.stamp && s.pc == pc {
		cg := mem.CodeGen()
		if s.epoch == cg {
			x.stats.BlockL1Hits++
			return s.b, int32(i)
		}
		// The epoch moved, but a block never crosses a page boundary, so
		// an unchanged generation of its one page revalidates all of it.
		if s.gen == mem.Gen(pc) {
			s.epoch = cg
			x.stats.BlockL1Hits++
			return s.b, int32(i)
		}
		x.stats.BlockL1GenEvictions++
	} else if s.stamp == t.stamp && s.b != nil {
		x.stats.BlockL1Conflicts++
	}
	blk := x.sim.shared.lookupBlock(pc)
	if blk != nil && !x.blockValid(blk) {
		x.stats.BlockSharedStale++
		blk = nil
	}
	if blk != nil {
		x.stats.BlockSharedHits++
	} else {
		blk = x.buildBlock(pc)
		if blk == nil {
			return nil, -1
		}
		x.stats.BlockBuilds++
		x.sim.shared.insertBlock(pc, blk)
	}
	// Mark the block's (single) page as code before capturing generation
	// and epoch: every later store to it must advance both.
	mem.MarkCode(pc)
	fill := s.stamp != t.stamp
	*s = bslot{pc: pc, gen: mem.Gen(pc), epoch: mem.CodeGen(), stamp: t.stamp, b: blk}
	if fill && t.fill(len(t.slots)) {
		t.grow()
		x.lastB = -1
		i = t.idx(pc)
	}
	return blk, int32(i)
}

// blockValid reports whether every instruction of a shared-cache block
// matches the bits currently in this machine's memory. Blocks are built
// from many instructions, so the single-word check transUnit uses is not
// enough: two program images can agree at the block's start and diverge
// later.
func (x *Exec) blockValid(blk *xblock) bool {
	for _, u := range blk.units {
		v, f := x.M.Mem.Load(u.pc, x.sim.Spec.InstrSize)
		if f != mach.FaultNone || uint32(v) != u.bits {
			return false
		}
	}
	return true
}

// buildBlock decodes instructions from pc until a control-transfer or
// barrier instruction, an undecodable word, a page boundary, or the block
// length limit.
func (x *Exec) buildBlock(pc uint64) *xblock {
	s := x.sim
	blk := &xblock{startPC: pc}
	cur := pc
	pageEnd := (pc | 0xffff) + 1 // 64 KiB pages (mach page size)
	for len(blk.units) < s.Opts.MaxBlockLen {
		if cur+s.instrSize > pageEnd {
			break
		}
		v, f := x.M.Mem.Load(cur, s.Spec.InstrSize)
		if f != mach.FaultNone {
			break
		}
		bits := uint32(v)
		id := s.dec.decode(bits)
		if id < 0 {
			break
		}
		in := s.Spec.Instrs[id]
		blk.units = append(blk.units, s.translate(in, cur, bits))
		cur += s.instrSize
		if in.CTI || in.Barrier {
			break
		}
	}
	if len(blk.units) == 0 {
		return nil
	}
	return blk
}

// Run drives the machine to completion (halt, fault, or the instruction
// budget) through the buildset's natural interface, returning the number
// of instructions executed. It is the convenience entry used by tools and
// tests; benchmarks drive the interfaces directly.
func (x *Exec) Run(maxInstrs uint64) uint64 {
	start := x.M.Instret
	switch {
	case x.sim.BS.Mode == lis.ModeBlock:
		var batch Batch
		for !x.M.Halted && x.M.Instret-start < maxInstrs {
			if !x.ExecBlock(&batch) {
				break
			}
		}
	case len(x.sim.BS.Entrypoints) > 1:
		var rec Record
		for !x.M.Halted && x.M.Instret-start < maxInstrs {
			if !x.ExecOneStepwise(&rec) {
				break
			}
		}
	default:
		var rec Record
		for !x.M.Halted && x.M.Instret-start < maxInstrs {
			if !x.ExecOne(&rec) {
				break
			}
		}
	}
	return x.M.Instret - start
}
