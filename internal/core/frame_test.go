package core

import (
	"testing"

	"singlespec/internal/isa"
	"singlespec/internal/mach"
)

// TestFramePrefixLayout pins the field-placement rule publish and import
// depend on: for every ISA and standard buildset, the visible field in
// Layout slot i lives in frame slot i, and every hidden field lives past
// the visible prefix in a slot of its own.
func TestFramePrefixLayout(t *testing.T) {
	for _, name := range isa.Names() {
		is, err := isa.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range isa.StdBuildsets {
			s, err := Synthesize(is.Spec, bs, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, bs, err)
			}
			if s.nPub != s.Layout.NumSlots() {
				t.Errorf("%s/%s: nPub = %d, layout has %d slots", name, bs, s.nPub, s.Layout.NumSlots())
			}
			for i, fn := range s.Layout.FieldNames() {
				if got := s.fslot[is.Spec.Field(fn).Index]; got != i {
					t.Errorf("%s/%s: visible field %s (layout slot %d) in frame slot %d", name, bs, fn, i, got)
				}
			}
			seen := make(map[int]bool)
			for i, f := range is.Spec.Fields {
				fs := s.fslot[i]
				switch {
				case f.Builtin:
					if fs != -1 {
						t.Errorf("%s/%s: builtin %s has frame slot %d", name, bs, f.Name, fs)
					}
					continue
				case fs < 0 || fs >= s.frameFields || seen[fs]:
					t.Errorf("%s/%s: field %s has bad or shared frame slot %d", name, bs, f.Name, fs)
				case !is.Spec.Buildset(bs).Visible(f) && fs < s.nPub:
					t.Errorf("%s/%s: hidden field %s inside the visible prefix (slot %d)", name, bs, f.Name, fs)
				}
				seen[fs] = true
			}
		}
	}
}

// TestStepIgnoresHiddenFrameGarbage: a Step entrypoint starts from the
// record plus zeroed hidden storage, whatever the frame held before. Every
// frame slot is filled with garbage before every call; records and final
// state must match a clean run exactly. step_min_unchecked keeps operand
// values hidden across entrypoints, so a leak would change its result.
func TestStepIgnoresHiddenFrameGarbage(t *testing.T) {
	for _, bs := range []string{"step_all", "step_min_unchecked"} {
		run := func(plant bool) ([]Record, mach.Snapshot) {
			s := synth(t, bs, Options{})
			m := loadProgram(s.Spec, aluProgram())
			initALU(m)
			x := s.NewExec(m)
			var recs []Record
			for n := 0; n < 16 && !m.Halted; n++ {
				var rec Record
				rec.PC = m.PC
				for ep := range s.BS.Entrypoints {
					if plant {
						for i := range x.fr {
							x.fr[i] = 0xdead_beef_0000 + uint64(i)
						}
					}
					x.StepCall(ep, &rec)
					cp := rec
					cp.Vals = append([]uint64(nil), rec.Vals...)
					recs = append(recs, cp)
				}
				if rec.Fault != mach.FaultNone {
					break
				}
			}
			return recs, m.Snapshot()
		}
		clean, cleanState := run(false)
		dirty, dirtyState := run(true)
		if len(clean) != len(dirty) {
			t.Fatalf("%s: %d records clean, %d with garbage", bs, len(clean), len(dirty))
		}
		for i := range clean {
			c, d := clean[i], dirty[i]
			if c.PC != d.PC || c.NextPC != d.NextPC || c.InstrID != d.InstrID || c.Fault != d.Fault || len(c.Vals) != len(d.Vals) {
				t.Fatalf("%s: record %d header differs: %+v vs %+v", bs, i, c, d)
			}
			for j := range c.Vals {
				if c.Vals[j] != d.Vals[j] {
					t.Fatalf("%s: record %d slot %d = %#x with garbage, %#x clean", bs, i, j, d.Vals[j], c.Vals[j])
				}
			}
		}
		if ok, diff := cleanState.Equal(dirtyState, nil); !ok {
			t.Errorf("%s: final state differs: %s", bs, diff)
		}
	}
}
