package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a call into an internal package's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. Spans are opened and closed on the benchmark's main goroutine in
// stack order, so a span's parent is the innermost span open when it
// began. A nil *tracer is the tracing-off mode: every method is a no-op,
// so the end-to-end run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, 0 for none
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.open, Name: name, Start: int64(time.Since(t.t0))})
	t.open = len(t.spans)
	return t.open
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.open = s.Parent
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
