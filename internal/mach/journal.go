package mach

import "slices"

// The undo journal implements the paper's speculation support (§IV-B4):
// "the instruction information structure carries enough information to roll
// back the architectural effects of each instruction." We centralize the
// log in the machine rather than the instruction record; a Mark taken
// before an instruction (or any span of instructions) rolls back everything
// executed since.
//
// Storage is laid out for the speculative hot path, where every register
// write and store appends an entry:
//
//   - An entry is 24 bytes and holds no pointers. The register space is
//     named by its index in Machine.Spaces, so the garbage collector never
//     scans journal storage.
//   - Entries live in fixed chunks of journalChunk entries. Growth appends
//     a chunk; it never copies or re-zeroes what is already logged.
//   - Commit drops a prefix by advancing an offset into the first chunk and
//     recycling chunks that fall wholly inside the prefix, so its cost is
//     O(chunks), independent of the number of entries kept.

type entryKind uint8

const (
	entryReg entryKind = iota
	entryMem
	entryPC
)

// journalEntry is one undo record. addr is the register index (entryReg)
// or the memory address (entryMem); size is the store width in bytes.
type journalEntry struct {
	addr  uint64
	old   uint64
	kind  entryKind
	size  uint8
	space uint16
}

// journalChunk is the number of entries per chunk: 12 KiB, so the first
// journaled write of a fresh machine allocates little, while a long
// speculative run appends one chunk per 512 writes.
const (
	journalChunkShift = 9
	journalChunk      = 1 << journalChunkShift
)

type journalBlock [journalChunk]journalEntry

// Journal is an undo log of architectural writes.
type Journal struct {
	// chunks holds the live entries, starting at chunks[0][head], followed
	// by spare chunks kept for reuse.
	chunks []*journalBlock
	head   int
	n      int
}

// Mark identifies a point in the journal that can be rolled back to.
type Mark int

// Mark returns the current journal position.
func (j *Journal) Mark() Mark { return Mark(j.n) }

// Len reports the number of journaled writes (for tests and stats).
func (j *Journal) Len() int { return j.n }

// at returns the storage of logical entry i (0 is the oldest live entry).
func (j *Journal) at(i int) *journalEntry {
	p := j.head + i
	return &j.chunks[p>>journalChunkShift][p&(journalChunk-1)]
}

// next returns the storage of a new entry at the end of the journal.
func (j *Journal) next() *journalEntry {
	p := j.head + j.n
	if p == j.capacity() {
		j.chunks = append(j.chunks, new(journalBlock))
	}
	j.n++
	return &j.chunks[p>>journalChunkShift][p&(journalChunk-1)]
}

// logReg journals register idx of s before a write. It is out of line so
// Machine.WriteReg stays inlinable: the journal-off path costs no call.
//
//go:noinline
func (j *Journal) logReg(s *Space, idx int) {
	*j.next() = journalEntry{kind: entryReg, space: s.index, addr: uint64(idx), old: s.Vals[idx]}
}

func (j *Journal) logMem(addr, old uint64, size int) {
	*j.next() = journalEntry{kind: entryMem, addr: addr, old: old, size: uint8(size)}
}

func (j *Journal) logPC(old uint64) {
	*j.next() = journalEntry{kind: entryPC, old: old}
}

// Rollback undoes, in reverse order, every architectural write journaled
// since mark, restoring registers and memory on machine m (and the PC, for
// callers that journaled it via SetPC — the synthesized simulators leave PC
// restoration to the speculation driver, which knows the PC at each mark).
// Register entries restore into m.Spaces by index, so m must be the machine
// whose writes were journaled.
func (j *Journal) Rollback(m *Machine, mark Mark) {
	for i := j.n - 1; i >= int(mark); i-- {
		e := j.at(i)
		switch e.kind {
		case entryReg:
			m.Spaces[e.space].Vals[e.addr] = e.old
		case entryMem:
			m.Mem.Store(e.addr, e.old, int(e.size))
		case entryPC:
			m.PC = e.old
		}
	}
	if int(mark) < j.n {
		j.n = int(mark)
	}
}

// Commit discards journal entries older than mark: those writes become
// permanent and can no longer be rolled back. Marks taken after the
// committed prefix must be rebased by subtracting the committed mark.
// Committing bounds journal growth during long speculative runs.
func (j *Journal) Commit(mark Mark) {
	j.n -= int(mark)
	if j.n == 0 {
		j.head = 0
		return
	}
	j.head += int(mark)
	if k := j.head >> journalChunkShift; k > 0 {
		// Rotate the wholly committed chunks to the back as spares (their
		// order among the spares does not matter).
		slices.Reverse(j.chunks[k:])
		slices.Reverse(j.chunks)
		j.head &= journalChunk - 1
	}
}

// journalShrinkCap is the entry capacity above which Reset releases the
// chunks beyond the first instead of retaining them. One speculative burst
// can grow the journal to millions of entries (24 bytes each); without the
// shrink a week-long resumable run would hold its peak-size storage
// forever. Below the threshold the chunks are kept, so steady-state runs
// still allocate nothing per Reset.
const journalShrinkCap = 1 << 15

// capacity reports the number of entries the journal's chunks can hold.
func (j *Journal) capacity() int { return len(j.chunks) * journalChunk }

// Reset empties the journal, releasing oversized storage (see
// journalShrinkCap) so long-lived machines do not retain peak-size buffers.
func (j *Journal) Reset() {
	j.head, j.n = 0, 0
	if j.capacity() > journalShrinkCap {
		clear(j.chunks[1:])
		j.chunks = j.chunks[:1]
	}
}
