package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer(true)
	at := func(ns int64) time.Time { return tr.origin.Add(time.Duration(ns)) }
	root := tr.record("root", -1, 1, at(0), at(100))
	tr.record("a", root, 1, at(10), at(30))
	tr.record("b", root, 1, at(20), at(40))  // overlaps a: union 10..40
	tr.record("c", root, 1, at(90), at(120)) // clipped to the parent: 90..100
	total, self, each := tr.layerTimes()
	if total["root"] != 100 || self["root"] != 100-30-10 {
		t.Errorf("root total %v self %v, want 100 and 60", total["root"], self["root"])
	}
	if self["a"] != 20 || self["c"] != 30 || len(each["b"]) != 1 {
		t.Errorf("leaf self times a=%v c=%v, b spans %d", self["a"], self["c"], len(each["b"]))
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded span %d (%d spans)", id, len(tr.spans))
	}
}
