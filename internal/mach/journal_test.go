package mach

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The journal model check drives a Machine with journaling on through a
// byte-coded sequence of WriteReg / StoreValue / SetPC / Mark / partial
// Commit / Rollback / Reset operations and checks it against a flat-slice
// reference journal: after every operation the lengths agree, after every
// truncation the live entries agree one for one, and every rollback must
// restore the machine snapshot (registers, PC and the touched memory
// window) taken when its mark was made. Bursts of writes carry the journal
// across many chunk boundaries, so Commit's chunk recycling and Rollback's
// walk back over chunk edges are both exercised.

const (
	modelMemBase = 0x40000
	modelMemLen  = 256
)

// modelMark is an outstanding mark with the machine state it must restore.
type modelMark struct {
	pos  Mark
	regs Snapshot
	mem  []byte
}

// journalCoverage reports what a model run exercised.
type journalCoverage struct {
	maxLen        int // longest live journal
	rollbacks     int
	chunkCommits  int // commits that recycled at least one whole chunk
	crossRollback int // rollbacks that walked back over a chunk boundary
}

type journalModel struct {
	m     *Machine
	ref   []journalEntry
	marks []modelMark
	cov   journalCoverage
}

func newJournalModel() *journalModel {
	m := NewMachine(NewMemory(LittleEndian), testDefs())
	m.JournalOn = true
	return &journalModel{m: m}
}

func (jm *journalModel) writeReg(sp, idx int, v uint64) {
	s := jm.m.Spaces[sp]
	if idx != s.Def.ZeroReg {
		jm.ref = append(jm.ref, journalEntry{kind: entryReg, space: uint16(sp), addr: uint64(idx), old: s.Vals[idx]})
	}
	jm.m.WriteReg(s, idx, v)
}

func (jm *journalModel) store(off uint64, size int, v uint64) error {
	addr := modelMemBase + (off&^uint64(size-1))%modelMemLen
	old, f := jm.m.Mem.Load(addr, size)
	if f != FaultNone {
		return fmt.Errorf("load %#x: %v", addr, f)
	}
	jm.ref = append(jm.ref, journalEntry{kind: entryMem, addr: addr, old: old, size: uint8(size)})
	if f := jm.m.StoreValue(addr, v, size); f != FaultNone {
		return fmt.Errorf("store %#x: %v", addr, f)
	}
	return nil
}

func (jm *journalModel) setPC(pc uint64) {
	jm.ref = append(jm.ref, journalEntry{kind: entryPC, old: jm.m.PC})
	jm.m.SetPC(pc)
}

// write performs one random architectural write drawn from rng.
func (jm *journalModel) write(rng *rand.Rand) error {
	switch rng.Intn(4) {
	case 0, 1:
		sp := rng.Intn(len(jm.m.Spaces))
		jm.writeReg(sp, rng.Intn(len(jm.m.Spaces[sp].Vals)), rng.Uint64())
	case 2:
		return jm.store(rng.Uint64(), 1<<rng.Intn(4), rng.Uint64())
	default:
		jm.setPC(rng.Uint64() &^ 3)
	}
	return nil
}

func (jm *journalModel) snapshot() modelMark {
	return modelMark{pos: jm.m.Journal.Mark(), regs: jm.m.Snapshot(), mem: jm.m.Mem.ReadBytes(modelMemBase, modelMemLen)}
}

// checkEntries compares the live journal with the reference entry by entry.
func (jm *journalModel) checkEntries() error {
	j := &jm.m.Journal
	if j.Len() != len(jm.ref) {
		return fmt.Errorf("journal len %d, reference %d", j.Len(), len(jm.ref))
	}
	for i := range jm.ref {
		if got := *j.at(i); got != jm.ref[i] {
			return fmt.Errorf("entry %d = %+v, reference %+v", i, got, jm.ref[i])
		}
	}
	return nil
}

func (jm *journalModel) checkState(mk modelMark) error {
	if ok, diff := mk.regs.Equal(jm.m.Snapshot(), []string{"r", "c"}); !ok {
		return fmt.Errorf("registers differ from mark %d snapshot: %s", mk.pos, diff)
	}
	if got := jm.m.Mem.ReadBytes(modelMemBase, modelMemLen); !bytes.Equal(got, mk.mem) {
		return fmt.Errorf("memory differs from mark %d snapshot", mk.pos)
	}
	return nil
}

// step decodes and applies one operation from op and arg.
func (jm *journalModel) step(op, arg byte) error {
	j := &jm.m.Journal
	rng := rand.New(rand.NewSource(int64(op)<<8 | int64(arg)))
	switch op % 8 {
	case 0:
		sp := int(arg) % len(jm.m.Spaces)
		jm.writeReg(sp, int(arg)%len(jm.m.Spaces[sp].Vals), rng.Uint64())
	case 1:
		if err := jm.store(uint64(arg), 1<<(arg%4), rng.Uint64()); err != nil {
			return err
		}
	case 2:
		jm.setPC(uint64(arg) << 2)
	case 3:
		jm.marks = append(jm.marks, jm.snapshot())
	case 4: // rollback to an outstanding mark
		if len(jm.marks) == 0 {
			return nil
		}
		k := int(arg) % len(jm.marks)
		mk := jm.marks[k]
		if (j.head+j.Len()-1)>>journalChunkShift != (j.head+int(mk.pos))>>journalChunkShift {
			jm.cov.crossRollback++
		}
		j.Rollback(jm.m, mk.pos)
		jm.ref = jm.ref[:mk.pos]
		jm.marks = jm.marks[:k+1]
		jm.cov.rollbacks++
		if err := jm.checkState(mk); err != nil {
			return err
		}
		return jm.checkEntries()
	case 5: // commit the prefix below an outstanding mark, rebase the rest
		if len(jm.marks) == 0 {
			return nil
		}
		k := int(arg) % len(jm.marks)
		pos := jm.marks[k].pos
		if int(pos) < j.Len() && (j.head+int(pos))>>journalChunkShift > 0 {
			jm.cov.chunkCommits++
		}
		j.Commit(pos)
		jm.ref = append([]journalEntry(nil), jm.ref[pos:]...)
		jm.marks = append([]modelMark(nil), jm.marks[k:]...)
		for i := range jm.marks {
			jm.marks[i].pos -= pos
		}
		return jm.checkEntries()
	case 6:
		if arg%4 != 0 {
			return nil // keep Reset rarer than the other operations
		}
		j.Reset()
		jm.ref, jm.marks = nil, nil
		return jm.checkEntries()
	case 7: // burst of writes across chunk boundaries
		for n := (int(arg)%32 + 1) * 64; n > 0; n-- {
			if err := jm.write(rng); err != nil {
				return err
			}
		}
	}
	if j.Len() != len(jm.ref) {
		return fmt.Errorf("journal len %d, reference %d", j.Len(), len(jm.ref))
	}
	if j.Len() > jm.cov.maxLen {
		jm.cov.maxLen = j.Len()
	}
	return nil
}

// runJournalModel applies the operation pairs in ops and finally rolls
// everything back to the oldest outstanding mark.
func runJournalModel(ops []byte) (journalCoverage, error) {
	jm := newJournalModel()
	jm.marks = append(jm.marks, jm.snapshot())
	for i := 0; i+1 < len(ops); i += 2 {
		if err := jm.step(ops[i], ops[i+1]); err != nil {
			return jm.cov, fmt.Errorf("op %d (%d,%d): %w", i/2, ops[i], ops[i+1], err)
		}
	}
	if err := jm.checkEntries(); err != nil {
		return jm.cov, err
	}
	if len(jm.marks) > 0 {
		if err := jm.step(4, 0); err != nil {
			return jm.cov, fmt.Errorf("final rollback: %w", err)
		}
	}
	return jm.cov, nil
}

// modelOps draws a random operation sequence biased toward long
// speculative runs: bursts and marks are common, commits and rollbacks
// interleave with them, and Reset is rare.
func modelOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 2*n)
	weights := []byte{0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 7, 7, 7, 7}
	for i := 0; i < n; i++ {
		ops = append(ops, weights[rng.Intn(len(weights))], byte(rng.Intn(256)))
	}
	return ops
}

func TestJournalModelAcrossChunks(t *testing.T) {
	var total journalCoverage
	for seed := int64(1); seed <= 8; seed++ {
		cov, err := runJournalModel(modelOps(seed, 300))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cov.maxLen > total.maxLen {
			total.maxLen = cov.maxLen
		}
		total.rollbacks += cov.rollbacks
		total.chunkCommits += cov.chunkCommits
		total.crossRollback += cov.crossRollback
	}
	t.Logf("coverage: %+v", total)
	if total.maxLen <= 3*journalChunk {
		t.Errorf("journal never spanned more than 3 chunks: max len %d", total.maxLen)
	}
	if total.chunkCommits == 0 || total.crossRollback == 0 {
		t.Errorf("chunk edges not exercised: %+v", total)
	}
}

func FuzzJournal(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(modelOps(seed, 40))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		if _, err := runJournalModel(ops); err != nil {
			t.Fatal(err)
		}
	})
}
