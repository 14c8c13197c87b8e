package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "report", Start: 60, End: 70},
		{ID: 4, Parent: 2, Name: "inner", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 50 - 10, 3: 10, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["phase"] != 40.0/1e6 {
		t.Errorf("self time of phase = %g ms, want %g", byName["phase"], 40.0/1e6)
	}
}

func TestTracerRecordsParentsAndGroups(t *testing.T) {
	tr := newTracer()
	g := tr.nextGroup()
	root := tr.begin("phase", g, 0)
	child := tr.begin("run", g, root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Group != g || spans[0].Group != g {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside parent %+v", spans[1], spans[0])
	}
	if len(durations(spans, "run")) != 1 {
		t.Error("durations did not find the run span")
	}

	var off *tracer
	if id := off.begin("phase", off.nextGroup(), 0); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	off.end(1)
	if off.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}
