package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Two children overlapping on [30, 40): covered once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child running past its parent's end is clipped to it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["job"] != 40 || byName["a"] != 20 {
		t.Fatalf("self by name = %v", byName)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {5, 8}}, 10},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{0, 10}, {5, 15}, {30, 31}}, 16},
	}
	for _, c := range cases {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestCoverageCountsRootSpansOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 40},
		{ID: 2, Name: "job", Start: 30, End: 70}, // a concurrent client
		{ID: 3, Parent: 1, Name: "x", Start: 0, End: 40},
	}
	if c := coverage(spans, 0, 100); c != 0.7 {
		t.Fatalf("coverage = %v, want 0.7", c)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", 0, "j0")
	start := time.Now()
	tr.record("child", root, "j0", start, start.Add(time.Millisecond))
	if _, err := tr.timed("other", root, "j0", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	open := tr.begin("unfinished", 0, "")
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3 (the open span is left out)", len(spans))
	}
	_ = open

	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip changed spans:\n got %+v\nwant %+v", got, spans)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpanFile(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err = readSpans(f)
	if err != nil || !reflect.DeepEqual(got, spans) {
		t.Fatalf("file round trip: %v\n got %+v\nwant %+v", err, got, spans)
	}

	if _, err := readSpans(bytes.NewBufferString("{\"id\":1}\nnot json\n")); err == nil {
		t.Fatal("reading a damaged span file: want an error")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.end(id)
	tr.record("y", 0, "", time.Now(), time.Now())
	d, err := tr.timed("z", 0, "", func() error { time.Sleep(time.Millisecond); return nil })
	if id != 0 || err != nil || d < time.Millisecond {
		t.Fatalf("nil tracer: id %d, d %v, err %v", id, d, err)
	}
}
