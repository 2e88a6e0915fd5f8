package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "session", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 30, Parent: 0},
		{Name: "observe", Start: 20, End: 50, Parent: 0}, // overlaps decode
		{Name: "decode", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "alarm", Start: 25, End: 28, Parent: 2},   // grandchild
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"session": 100 - (40 + 10), // children cover [10,50] and [90,100]
		"decode":  20 + 30,
		"observe": 30 - 3,
		"alarm":   3,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}

func TestTracerRecordsParentAndSession(t *testing.T) {
	tr := newTracer()
	root := tr.begin("wire.session", -1, 7)
	child := tr.begin("server.stream", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Session != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Fatalf("span times out of order: %+v", spans)
	}
}
