package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"gowali/internal/obs"
)

// Harness-side tracing for the traced pass: one span around every call
// the benchmark makes into a layer (Spawn, Wait, a connection's
// write→read, a probe body), recorded from outside the program. Spans
// stay in memory until the run ends. A nil *recorder is the untraced
// run: every method is a no-op behind one nil check.

type span struct {
	name       string
	start, end int64 // ns on the obs tracer's clock, so both sources align
	parent     int32 // index of the span that caused this one, -1 for a root
	op         int64 // spans of one operation share this id
	tid        int32 // client number
}

// maxSpans bounds the recorder (a kv-serve window alone is ~10^5 ops);
// spans past it are counted, not kept.
const maxSpans = 1 << 18

type recorder struct {
	now     func() int64
	ops     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder(tr *obs.Tracer) *recorder {
	return &recorder{now: tr.Now, spans: make([]span, 0, maxSpans)}
}

// nextOp hands out the id the spans of one operation share.
func (r *recorder) nextOp() int64 {
	if r == nil {
		return 0
	}
	return r.ops.Add(1)
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int32, op int64, tid int) int32 {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: t, parent: parent, op: op, tid: int32(tid)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// spanStat is one row of the self-time table: a layer's self time is
// its span's duration minus what its child spans cover.
type spanStat struct {
	name          string
	count         int
	durUS, selfUS float64 // medians
}

func (r *recorder) summary() []spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range r.spans {
		if s.end == 0 {
			continue // still open when the window closed
		}
		durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e3)
		selfs[s.name] = append(selfs[s.name], float64(self[i])/1e3)
	}
	var out []spanStat
	for name, d := range durs {
		out = append(out, spanStat{name, len(d), median(d), median(selfs[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// harnessPID is the Chrome-trace process the harness spans live under;
// guest PIDs from the obs tracer are small, so the two never collide.
const harnessPID = 1 << 20

// writeChrome writes one Chrome-trace JSON document: the runtime's own
// events from the obs tracer (syscalls, scheduler, per guest PID) plus
// the harness spans as a "harness" process with one track per client.
func (r *recorder) writeChrome(w io.Writer, tr *obs.Tracer) error {
	var inner bytes.Buffer
	if err := tr.WriteChromeTrace(&inner); err != nil {
		return fmt.Errorf("export runtime events: %w", err)
	}
	var doc struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(inner.Bytes(), &doc); err != nil {
		return fmt.Errorf("re-read runtime events: %w", err)
	}
	add := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		doc.TraceEvents = append(doc.TraceEvents, raw)
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := add(map[string]any{"name": "process_name", "ph": "M", "pid": harnessPID, "tid": 0,
		"args": map[string]any{"name": "harness", "dropped_spans": r.dropped}}); err != nil {
		return err
	}
	for i, s := range r.spans {
		if s.end == 0 {
			continue
		}
		if err := add(map[string]any{
			"name": s.name, "cat": "harness", "ph": "X",
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"pid": harnessPID, "tid": s.tid,
			"args": map[string]any{"span": i, "parent": s.parent, "op": s.op},
		}); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(&doc)
}
