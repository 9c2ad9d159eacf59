package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced call: a layer boundary crossed by the benchmark.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	parent     int32 // index of the enclosing span, -1 for a root
	req        int64 // request id shared by every span of one batch
}

// tracer records spans in memory. A disabled tracer records nothing and
// costs one branch per call, which is how the untraced replay runs.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.ns(time.Now()), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = t.ns(time.Now())
	}
}

// record adds a span whose bounds were taken elsewhere (inside a hook).
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.ns(start), end: t.ns(end), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// layerTimes returns, per span name, the summed duration, the summed
// self time (duration minus the part of it child spans cover) and every
// single duration.
func (t *tracer) layerTimes() (total, self map[string]time.Duration, each map[string][]time.Duration) {
	total, self, each = map[string]time.Duration{}, map[string]time.Duration{}, map[string][]time.Duration{}
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.end - s.start)
		total[s.name] += d
		each[s.name] = append(each[s.name], d)
		self[s.name] += d - covered(t.spans, children[i], s)
	}
	return total, self, each
}

// covered returns how much of parent's interval the union of the child
// spans covers.
func covered(spans []span, kids []int32, parent span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curLo, curHi, first = x[0], x[1], false
		case x[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if !first {
		sum += curHi - curLo
	}
	return time.Duration(sum)
}

// write saves every span as gzip-compressed CSV: id, parent, request,
// name, start and end in ns since the tracer's origin.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
