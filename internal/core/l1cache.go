package core

// First-level translation caches: open-addressed, direct-mapped tables
// private to one Exec. They replace the earlier map[uint64]-based caches on
// the dispatch hot path:
//
//   - A lookup is one masked multiply (the same Fibonacci hash the shared
//     cache shards by) and one slot compare — no map header, no bucket
//     chain, no hashing through runtime interfaces.
//   - A table starts at l1InitSlots slots (fewer when Options.CacheCap is
//     smaller) and doubles when more than half of its slots are filled,
//     never past the power-of-two rounding of CacheCap. Most Execs run one
//     program whose working set is far below CacheCap, so a fresh Exec
//     allocates tens of KiB rather than a full-size table. At the limit a
//     PC whose slot is occupied by another PC evicts it (direct-mapped
//     conflict), so storage stays bounded by construction.
//   - Doubling rehashes the valid slots. A slot's index is the top bits of
//     its PC's hash, so slot i of the old table lands in slot 2i or 2i+1 of
//     the new one: no two valid slots collide, and no valid entry is lost.
//   - FlushLocal is O(1) and allocation-free: every slot carries the stamp
//     of the flush generation it was written under, and bumping the table
//     stamp invalidates all of them at once. The old implementation
//     reallocated fresh maps, which both allocated and left the old map for
//     the GC to sweep.
//
// Slot validity is two-tier. Each slot records the code-store epoch
// (mach.Memory.CodeGen) and the page generation under which its product was
// last validated. On a hit the epoch is compared first: an unchanged epoch
// proves no store has touched ANY code-marked page, so the product is valid
// without walking to the page. Only when the epoch moved does the lookup
// fall back to the per-page generation (refreshing the slot epoch when the
// page turns out untouched), and only a real page change forces
// re-translation.

type uslot struct {
	pc    uint64
	gen   uint64 // page generation at validation
	epoch uint64 // code-store epoch at validation
	stamp uint64 // table stamp this slot was written under
	u     *unit
}

// bslot is the block-table slot. Beyond the cached block it carries the
// block's chain link: after this slot's block retired, control transferred
// to next (a monomorphic inline cache of the dynamic successor). A link is
// followed only when the successor's start PC matches the machine's PC and
// the code-store epoch still equals nextEpoch — the epoch under which the
// successor was validated — so a followed link can never reach stale code.
// Conditional branches work naturally: when the other arm is taken the PC
// compare fails and dispatch falls back to the table. The successor's own
// slot is not stored: a direct-mapped table keeps every block at the slot
// its start PC hashes to, so it is recomputed on a follow, and a link
// stays meaningful when the table doubles.
type bslot struct {
	pc    uint64
	gen   uint64
	epoch uint64
	stamp uint64
	b     *xblock

	next      *xblock
	nextEpoch uint64
}

// l1InitSlots is the slot count a table starts with: enough for the hot
// code of the kernels and workloads this repository runs, at 40 (unit) or
// 56 (block) bytes per slot.
const l1InitSlots = 1024

// l1geom is the sizing and validity state both tables share.
type l1geom struct {
	shift uint
	stamp uint64
	used  int // slots filled under the current stamp
	limit int // largest slot count: Options.CacheCap rounded up
}

type utab struct {
	slots []uslot
	l1geom
}

type btab struct {
	slots []bslot
	l1geom
}

// tabSize rounds a cache capacity to the next power of two (minimum 1) so
// indexing is a shift instead of a modulo.
func tabSize(cap int) (size int, shift uint) {
	size = 1
	shift = 64
	for size < cap {
		size <<= 1
		shift--
	}
	return size, shift
}

// l1hash spreads a word-aligned PC across the table; the same Fibonacci
// multiplier as shardOf so the two levels decorrelate only by shift width.
func l1hash(pc uint64) uint64 { return (pc >> 2) * 0x9e3779b97f4a7c15 }

func (g *l1geom) idx(pc uint64) uint64 { return l1hash(pc) >> g.shift }

// init sets up an empty table for capacity cap and returns its initial
// slot count.
func (g *l1geom) init(cap int) int {
	g.limit, _ = tabSize(cap)
	size, shift := tabSize(min(cap, l1InitSlots))
	g.shift = shift
	g.stamp = 1 // zero-valued slots are invalid under stamp 1
	return size
}

// fill counts a newly occupied slot of an n-slot table and reports whether
// the table should now double.
func (g *l1geom) fill(n int) bool {
	g.used++
	return 2*g.used > n && n < g.limit
}

// flush invalidates every slot by bumping the stamp.
func (g *l1geom) flush() {
	g.stamp++
	g.used = 0
}

func (t *utab) init(cap int) { t.slots = make([]uslot, t.l1geom.init(cap)) }

func (t *btab) init(cap int) { t.slots = make([]bslot, t.l1geom.init(cap)) }

// grow doubles the table, moving every slot valid under the current stamp
// to its index in the larger table.
func (t *utab) grow() {
	old := t.slots
	t.slots = make([]uslot, 2*len(old))
	t.shift--
	for i := range old {
		if s := &old[i]; s.stamp == t.stamp {
			t.slots[t.idx(s.pc)] = *s
		}
	}
}

// grow doubles the table like utab.grow. Chain links move with their
// slots; the caller must drop any slot index it holds (Exec.lastB).
func (t *btab) grow() {
	old := t.slots
	t.slots = make([]bslot, 2*len(old))
	t.shift--
	for i := range old {
		if s := &old[i]; s.stamp == t.stamp {
			t.slots[t.idx(s.pc)] = *s
		}
	}
}
