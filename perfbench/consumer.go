package main

import "singlespec/internal/core"

// consumer is a null timing model: it reads every field a record makes
// visible (the fixed header plus every published value) and folds them
// into a digest, so the simulator cannot skip producing anything a real
// timing model would receive. The digest doubles as a check: the same
// program through the same interface must deliver the same stream.
type consumer struct {
	digest  uint64
	records uint64
	fields  uint64
}

func (c *consumer) record(r *core.Record) {
	h := c.digest
	h = mix(h, uint64(r.Ctx))
	h = mix(h, r.PC)
	h = mix(h, r.PhysPC)
	h = mix(h, r.NextPC)
	h = mix(h, uint64(r.InstrBits))
	h = mix(h, uint64(r.InstrID))
	h = mix(h, uint64(r.Fault))
	if r.Nullified {
		h = mix(h, 1)
	}
	for _, v := range r.Vals {
		h = mix(h, v)
	}
	c.digest = h
	c.records++
	c.fields += 8 + uint64(len(r.Vals))
}

// batch reads a Block-interface result: the block summary, then each
// per-instruction record the buildset publishes (none at Min detail).
func (c *consumer) batch(b *core.Batch) {
	h := mix(c.digest, b.StartPC)
	h = mix(h, uint64(b.N))
	h = mix(h, uint64(b.Fault))
	if b.Halted {
		h = mix(h, 1)
	}
	c.digest = h
	c.fields += 4
	for i := range b.Recs {
		c.record(&b.Recs[i])
	}
}

// mix folds one value into the digest (FNV-style multiply-xor).
func mix(h, v uint64) uint64 {
	return (h ^ v) * 0x100000001b3
}
