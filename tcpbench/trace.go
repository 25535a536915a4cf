package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one interval recorded at a layer boundary the benchmark can see
// from outside: an op (due → reply), each rpc call it made, each probe
// READ of a memory node, each failover phase. Spans of one request share
// id; parent names the span that caused this one (0 for a root).
type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the run's epoch
}

// tracer keeps spans in a fixed preallocated buffer so recording is one
// atomic add and a store; spans past its capacity are counted, not kept.
// A nil tracer records nothing.
type tracer struct {
	epoch   time.Time
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
	nextID  atomic.Uint64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, buf: make([]span, capacity)}
}

// newID returns a fresh span id.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one span.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{id: id, parent: parent, name: name,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
}

// spans returns the recorded spans. Call only once recording has stopped.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// durations returns the durations, in µs, of the spans named name that
// started in [from, to).
func (t *tracer) durations(name string, from, to time.Time) []float64 {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	var out []float64
	for _, s := range t.spans() {
		if s.name == name && s.start >= lo && s.start < hi {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans() {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
