// Package trace serializes the instruction stream of a functional-first
// simulator so it can be "written to storage and then fed to the timing
// simulator or multiple timing simulators" (§II-B). The format is a simple
// self-describing binary stream: a header naming the visible fields, then
// one record per instruction.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"singlespec/internal/core"
	"singlespec/internal/mach"
)

const magic = 0x53535452 // "SSTR"

// recordHeader is the fixed part of an encoded record: PC, PhysPC and
// NextPC (8 bytes each), InstrBits (4), InstrID (2), Fault (1) and
// Nullified (1). The record's values follow, 8 bytes each.
const recordHeader = 32

// Writer streams records.
type Writer struct {
	w     *bufio.Writer
	nVals int
	rec   []byte // one encoded record, reused by every Write
}

// NewWriter writes a stream header for the given interface layout.
func NewWriter(w io.Writer, layout *core.Layout) (*Writer, error) {
	bw := bufio.NewWriter(w)
	names := layout.FieldNames()
	if err := binary.Write(bw, binary.LittleEndian, uint32(magic)); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(n))); err != nil {
			return nil, err
		}
		if _, err := bw.WriteString(n); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw, nVals: len(names), rec: make([]byte, recordHeader+8*len(names))}, nil
}

// Write appends one record. A record whose value count differs from the
// stream header's is rejected before any of it is written, so the stream
// stays well formed.
func (t *Writer) Write(rec *core.Record) error {
	if len(rec.Vals) != t.nVals {
		return fmt.Errorf("trace: record has %d values, stream header declared %d", len(rec.Vals), t.nVals)
	}
	b := t.rec
	binary.LittleEndian.PutUint64(b[0:], rec.PC)
	binary.LittleEndian.PutUint64(b[8:], rec.PhysPC)
	binary.LittleEndian.PutUint64(b[16:], rec.NextPC)
	binary.LittleEndian.PutUint32(b[24:], rec.InstrBits)
	binary.LittleEndian.PutUint16(b[28:], rec.InstrID)
	b[30] = byte(rec.Fault)
	b[31] = 0
	if rec.Nullified {
		b[31] = 1
	}
	for i, v := range rec.Vals {
		binary.LittleEndian.PutUint64(b[recordHeader+8*i:], v)
	}
	_, err := t.w.Write(b)
	return err
}

// Flush flushes buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader replays a stream.
type Reader struct {
	r      *bufio.Reader
	Fields []string
	rec    []byte // one encoded record, reused by every Read
	// recs counts records successfully returned by Read; truncation errors
	// report it so the caller knows where a damaged stream broke off.
	recs uint64
}

// maxFieldName bounds header field-name lengths. The real field names are
// LIS identifiers a few characters long; anything near the uint16 ceiling is
// a corrupt or adversarial header, and rejecting it early keeps a damaged
// stream from provoking large allocations.
const maxFieldName = 256

// validFieldName reports whether a header field name looks like the LIS
// identifier a writer would have produced.
func validFieldName(name []byte) bool {
	if len(name) == 0 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '_':
		default:
			return false
		}
	}
	return name[0] < '0' || name[0] > '9'
}

// NewReader validates the header and returns a reader. A stream that ends
// inside the header yields io.ErrUnexpectedEOF (wrapped with context), never
// a bare io.EOF: only a complete header is a valid prefix.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m, n uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("trace: reading field count: %w", noEOF(err))
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("trace: implausible field count %d", n)
	}
	rd := &Reader{r: br}
	for i := 0; i < int(n); i++ {
		var l uint16
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return nil, fmt.Errorf("trace: reading length of field %d/%d: %w", i, n, noEOF(err))
		}
		if l == 0 || l > maxFieldName {
			return nil, fmt.Errorf("trace: field %d/%d has implausible name length %d", i, n, l)
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("trace: reading name of field %d/%d: %w", i, n, noEOF(err))
		}
		if !validFieldName(name) {
			return nil, fmt.Errorf("trace: field %d/%d has malformed name %q", i, n, name)
		}
		rd.Fields = append(rd.Fields, string(name))
	}
	rd.rec = make([]byte, recordHeader+8*len(rd.Fields))
	return rd, nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF. io.ReadFull and
// binary.Read return a bare io.EOF when the stream ends exactly at the read
// boundary, but inside a header or record that position is still truncation,
// not a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Slot finds a field's value index in replayed records.
func (r *Reader) Slot(name string) (int, bool) {
	for i, f := range r.Fields {
		if f == name {
			return i, true
		}
	}
	return 0, false
}

// Read fills rec with the next record. A clean end of stream — no bytes
// after the previous record — returns io.EOF; a stream that ends partway
// through a record returns an error wrapping io.ErrUnexpectedEOF that names
// the index of the truncated record.
func (r *Reader) Read(rec *core.Record) error {
	b := r.rec
	if n, err := io.ReadFull(r.r, b); err != nil {
		switch {
		case n == 0 && err == io.EOF:
			return io.EOF // clean record boundary
		case n < recordHeader:
			return fmt.Errorf("trace: record %d truncated mid-header: %w", r.recs, err)
		default:
			return fmt.Errorf("trace: record %d truncated in value %d/%d: %w",
				r.recs, (n-recordHeader)/8, len(r.Fields), noEOF(err))
		}
	}
	rec.PC = binary.LittleEndian.Uint64(b[0:])
	rec.PhysPC = binary.LittleEndian.Uint64(b[8:])
	rec.NextPC = binary.LittleEndian.Uint64(b[16:])
	rec.InstrBits = binary.LittleEndian.Uint32(b[24:])
	rec.InstrID = binary.LittleEndian.Uint16(b[28:])
	rec.Fault = mach.Fault(b[30])
	rec.Nullified = b[31] != 0
	if cap(rec.Vals) < len(r.Fields) {
		rec.Vals = make([]uint64, len(r.Fields))
	} else {
		rec.Vals = rec.Vals[:len(r.Fields)]
	}
	for i := range rec.Vals {
		rec.Vals[i] = binary.LittleEndian.Uint64(b[recordHeader+8*i:])
	}
	r.recs++
	return nil
}
