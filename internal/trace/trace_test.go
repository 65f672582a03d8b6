package trace

import (
	"bytes"
	"io"
	"testing"

	"singlespec/internal/core"
	"singlespec/internal/isa/isatest"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

func TestRoundTripStream(t *testing.T) {
	i := isatest.Load(t, "alpha64")
	sim, err := core.Synthesize(i.Spec, "one_decode", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Record a short real run.
	m := i.Spec.NewMachine()
	emu := sysemu.New(i.Conv)
	emu.Install(m)
	// addq r31,1,r0 ; addq r31,7,r16 ; callsys (exit 7)
	m.Mem.Store(i.Conv.CodeBase+0, uint64(0x10<<26|31<<21|1<<13|1<<12|0x20<<5|0), 4)
	m.Mem.Store(i.Conv.CodeBase+4, uint64(0x10<<26|31<<21|7<<13|1<<12|0x20<<5|16), 4)
	m.Mem.Store(i.Conv.CodeBase+8, uint64(0x83), 4)
	m.PC = i.Conv.CodeBase
	x := sim.NewExec(m)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, sim.Layout)
	if err != nil {
		t.Fatal(err)
	}
	var recs []core.Record
	var rec core.Record
	for !m.Halted {
		x.ExecOne(&rec)
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
		cp := rec
		cp.Vals = append([]uint64(nil), rec.Vals...)
		recs = append(recs, cp)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fields) != sim.Layout.NumSlots() {
		t.Fatalf("fields = %d", len(r.Fields))
	}
	if _, ok := r.Slot("effective_addr"); !ok {
		t.Error("missing effective_addr in stream header")
	}
	var got core.Record
	for idx := 0; ; idx++ {
		err := r.Read(&got)
		if err == io.EOF {
			if idx != len(recs) {
				t.Fatalf("replayed %d records, wrote %d", idx, len(recs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := recs[idx]
		if got.PC != want.PC || got.InstrID != want.InstrID || got.Fault != want.Fault {
			t.Fatalf("record %d header mismatch", idx)
		}
		for vi := range want.Vals {
			if got.Vals[vi] != want.Vals[vi] {
				t.Fatalf("record %d val %d: %#x vs %#x", idx, vi, got.Vals[vi], want.Vals[vi])
			}
		}
	}
	if recs[len(recs)-1].Fault != mach.FaultHalt {
		t.Error("last record should carry the halt fault")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("bad magic accepted")
	}
}

// newLayoutSim synthesizes the one_decode buildset whose layout the stream
// tests write.
func newLayoutSim(tb testing.TB) *core.Sim {
	tb.Helper()
	i := isatest.Load(tb, "alpha64")
	sim, err := core.Synthesize(i.Spec, "one_decode", core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// syntheticRecord is record r of the hand-assembled stream() helper.
func syntheticRecord(r, nVals int) core.Record {
	rec := core.Record{PC: uint64(0x1000 + 4*r), Vals: make([]uint64, nVals)}
	for i := range rec.Vals {
		rec.Vals[i] = uint64(r)
	}
	return rec
}

// TestWriterWireFormat pins the encoding: the Writer's bytes equal the
// hand-assembled stream of the same records.
func TestWriterWireFormat(t *testing.T) {
	sim := newLayoutSim(t)
	names := sim.Layout.FieldNames()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sim.Layout)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rec := syntheticRecord(r, len(names))
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stream(names, 3)) {
		t.Error("writer output differs from the documented wire format")
	}
}

// TestRejectedWriteLeavesStreamIntact checks that a record with the wrong
// value count is refused before any byte of it reaches the stream.
func TestRejectedWriteLeavesStreamIntact(t *testing.T) {
	sim := newLayoutSim(t)
	names := sim.Layout.FieldNames()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sim.Layout)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		rec := syntheticRecord(r, len(names))
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, len(names) - 1, len(names) + 1} {
		bad := syntheticRecord(9, n)
		if err := w.Write(&bad); err == nil {
			t.Fatalf("record with %d values accepted into a %d-field stream", n, len(names))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stream(names, 2)) {
		t.Error("rejected Write left bytes in the stream")
	}
}

// BenchmarkTraceWriteRead measures one record's round trip through the
// codec: encode into a buffer, then decode, in segments of 1024 records.
func BenchmarkTraceWriteRead(b *testing.B) {
	sim := newLayoutSim(b)
	const segment = 1024
	recs := make([]core.Record, segment)
	for r := range recs {
		recs[r] = syntheticRecord(r, sim.Layout.NumSlots())
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sim.Layout)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		b.Fatal(err)
	}
	var got core.Record
	b.SetBytes(int64(recordHeader + 8*sim.Layout.NumSlots()))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(segment, b.N-done)
		for k := 0; k < n; k++ {
			if err := w.Write(&recs[k]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if err := r.Read(&got); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}
