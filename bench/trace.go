package main

// Spans recorded from outside: the traced run composes the gateway's
// pipeline single-threaded from the layers' public functions — capture,
// nids, flowtable, reassembly, engine — and times each call from here, in
// the benchmark's own files. Nothing inside the program is instrumented.
// Each layer is called once per batch of packets, so two clock reads are
// spread over a few hundred packets and the trace stays cheap enough to
// believe; trace.overhead_share says how cheap.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Spans of one packet batch share
// Batch; Parent is the span whose interval this one sits inside, -1 for a
// batch root. A layer's self time is its span minus its children.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pkts   int32  `json:"pkts"`  // work done, counted at the same boundary
	Bytes  int64  `json:"bytes"` // payload bytes handled
	// Counting passes only: heap objects and bytes allocated inside.
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how the same pipeline runs with spans off.
type tracer struct {
	t0    time.Time
	spans []span
	// count makes every boundary read the allocator's counters as well; it
	// is used for one pass whose times are discarded.
	count  bool
	sample []metrics.Sample
}

func newTracer(count bool) *tracer {
	t := &tracer{t0: time.Now(), count: count}
	if count {
		t.sample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	}
	return t
}

func (t *tracer) allocs() (objects, bytes int64) {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64()), int64(t.sample[1].Value.Uint64())
}

func (t *tracer) begin(name string, parent, batch int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	s := span{Name: name, ID: id, Parent: parent, Batch: batch}
	if t.count {
		s.Allocs, s.AllocBytes = t.allocs()
	}
	t.spans = append(t.spans, s)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32, pkts int, bytes int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Pkts, s.Bytes = int32(pkts), int64(bytes)
	if t.count {
		o, b := t.allocs()
		s.Allocs, s.AllocBytes = o-s.Allocs, b-s.AllocBytes
	}
}

// layerTotal sums one layer's spans, self time and self allocations.
type layerTotal struct {
	Calls      int
	SelfNs     int64
	Pkts       int64
	Bytes      int64
	Allocs     int64
	AllocBytes int64
}

// byLayer folds the spans into per-name totals, subtracting from every span
// what its children account for.
func (t *tracer) byLayer() map[string]layerTotal {
	childNs := make([]int64, len(t.spans))
	childAllocs := make([]int64, len(t.spans))
	childBytes := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
			childBytes[s.Parent] += s.AllocBytes
		}
	}
	out := map[string]layerTotal{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.Calls++
		l.SelfNs += s.End - s.Start - childNs[i]
		l.Pkts += int64(s.Pkts)
		l.Bytes += s.Bytes
		l.Allocs += s.Allocs - childAllocs[i]
		l.AllocBytes += s.AllocBytes - childBytes[i]
		out[s.Name] = l
	}
	return out
}

// maxSpansWritten bounds the span file; the totals in the report always
// cover every span.
const maxSpansWritten = 50000

// write stores the spans at path, creating its directory.
func (t *tracer) write(path, workload string) error {
	n := min(len(t.spans), maxSpansWritten)
	doc := struct {
		Workload string `json:"workload"`
		Total    int    `json:"spans_total"`
		Spans    []span `json:"spans"`
	}{workload, len(t.spans), t.spans[:n]}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
