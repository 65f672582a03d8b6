package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"singlespec/internal/core"
)

// stream hand-assembles a trace: a header naming fields, then records of
// 32 header bytes + 8 bytes per field.
func stream(fields []string, records int) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(magic))
	binary.Write(&b, binary.LittleEndian, uint32(len(fields)))
	for _, f := range fields {
		binary.Write(&b, binary.LittleEndian, uint16(len(f)))
		b.WriteString(f)
	}
	for r := 0; r < records; r++ {
		var hdr [32]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(0x1000+4*r))
		b.Write(hdr[:])
		for range fields {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(r))
			b.Write(v[:])
		}
	}
	return b.Bytes()
}

func TestTruncatedRecordReportsIndex(t *testing.T) {
	full := stream([]string{"aa", "bb"}, 3)
	headerLen := len(stream([]string{"aa", "bb"}, 0))
	recLen := (len(full) - headerLen) / 3

	cases := []struct {
		name string
		cut  int // bytes kept after the header + 2 full records
		want string
	}{
		{"mid-header", 7, "record 2 truncated mid-header"},
		{"mid-values", 32 + 11, "record 2 truncated in value 1/2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := full[:headerLen+2*recLen+tc.cut]
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var rec core.Record
			for i := 0; i < 2; i++ {
				if err := r.Read(&rec); err != nil {
					t.Fatalf("intact record %d: %v", i, err)
				}
			}
			err = r.Read(&rec)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("want ErrUnexpectedEOF, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the truncated record: want %q", err, tc.want)
			}
		})
	}
}

func TestCleanEOFAtRecordBoundary(t *testing.T) {
	data := stream([]string{"aa"}, 2)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec core.Record
	for i := 0; i < 2; i++ {
		if err := r.Read(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Read(&rec); err != io.EOF {
		t.Fatalf("want bare io.EOF at record boundary, got %v", err)
	}
}

func TestTruncatedHeaderIsUnexpectedEOF(t *testing.T) {
	full := stream([]string{"field_one", "field_two"}, 0)
	for cut := 1; cut < len(full); cut++ {
		_, err := NewReader(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated header (%d/%d bytes) accepted", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestRejectsAbsurdFieldNames(t *testing.T) {
	bad := [][]string{
		{""},                          // empty
		{"has space"},                 // non-identifier byte
		{"ev\x00il"},                  // embedded NUL
		{"caf\xc3\xa9"},               // non-ASCII
		{"9starts_with_digit"},        // leading digit
		{strings.Repeat("x", 10_000)}, // way past maxFieldName
	}
	for _, fields := range bad {
		if _, err := NewReader(bytes.NewReader(stream(fields, 0))); err == nil {
			t.Errorf("field name %q accepted", fields[0])
		}
	}
	good := []string{"effective_addr", "x", "Branch_Taken2"}
	if _, err := NewReader(bytes.NewReader(stream(good, 0))); err != nil {
		t.Errorf("legitimate field names rejected: %v", err)
	}
}

func FuzzTraceReader(f *testing.F) {
	f.Add(stream([]string{"effective_addr", "branch_taken"}, 3))
	f.Add(stream([]string{"a"}, 0))
	f.Add(stream(nil, 2))
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x54, 0x53, 0x53}) // magic only
	full := stream([]string{"opcode"}, 2)
	f.Add(full[:len(full)-5]) // truncated mid-record
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// However mangled the stream, Read must terminate with io.EOF or a
		// descriptive error — never panic and never return a bare mid-record
		// io.EOF.
		var rec core.Record
		for i := 0; i < 1000; i++ {
			err := r.Read(&rec)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, io.ErrUnexpectedEOF) && strings.Contains(err.Error(), "EOF") {
					t.Fatalf("bare EOF leaked mid-record: %v", err)
				}
				return
			}
		}
	})
}

// TestTruncationAtEveryRecordOffset cuts a stream at every byte offset of
// its second record and checks the error names that record and the part
// of it the cut fell in. A cut at offset 0 is a clean end of stream.
func TestTruncationAtEveryRecordOffset(t *testing.T) {
	fields := []string{"aa", "bb", "cc"}
	headerLen := len(stream(fields, 0))
	recLen := recordHeader + 8*len(fields)
	full := stream(fields, 2)
	table := []struct {
		from, to int // cut offsets within record 1, inclusive
		want     string
	}{
		{1, 31, "record 1 truncated mid-header"},
		{32, 39, "record 1 truncated in value 0/3"},
		{40, 47, "record 1 truncated in value 1/3"},
		{48, 55, "record 1 truncated in value 2/3"},
	}
	if table[len(table)-1].to != recLen-1 {
		t.Fatalf("table covers offsets up to %d, record is %d bytes", table[len(table)-1].to, recLen)
	}
	read := func(cut int) error {
		r, err := NewReader(bytes.NewReader(full[:headerLen+recLen+cut]))
		if err != nil {
			t.Fatal(err)
		}
		var rec core.Record
		if err := r.Read(&rec); err != nil {
			t.Fatalf("cut %d: intact record 0: %v", cut, err)
		}
		return r.Read(&rec)
	}
	if err := read(0); err != io.EOF {
		t.Errorf("cut at record boundary: want io.EOF, got %v", err)
	}
	for _, row := range table {
		for cut := row.from; cut <= row.to; cut++ {
			err := read(cut)
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("cut %d: got %v, want ErrUnexpectedEOF naming %q", cut, err, row.want)
			}
		}
	}
}
