package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// batch (data plane) or one facade operation (control plane) share a
// request id. A root span has parent -1; a child names its parent's
// index. A child need not lie inside its parent's interval: on the
// control plane the layer calls that make up a facade operation are
// replayed right after it, on the same inputs.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        int64
	// calls is how many calls into the layer the span covers.
	calls int32
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs share the traced code path.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// ns converts a wall-clock reading into tracer time.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span covering calls calls and returns its
// index (-1 when tracing is off).
func (t *tracer) add(name string, parent int32, req int64, calls int, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.ns(start), end: t.ns(end), parent: parent, req: req, calls: int32(calls)})
	return int32(len(t.spans) - 1)
}

// layerTotals sums, per span name, the self time (duration minus the
// durations of its children), the duration and the calls covered.
type layerTotals struct {
	selfNs map[string]int64
	durNs  map[string]int64
	calls  map[string]int64
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{selfNs: map[string]int64{}, durNs: map[string]int64{}, calls: map[string]int64{}}
	if t == nil {
		return lt
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.durNs[s.name] += d
		lt.selfNs[s.name] += d - child[i]
		lt.calls[s.name] += int64(s.calls)
	}
	return lt
}

// residual is the share of the named roots' time that none of their
// child spans account for.
func (lt layerTotals) residual(roots ...string) float64 {
	var self, dur int64
	for _, r := range roots {
		self += lt.selfNs[r]
		dur += lt.durNs[r]
	}
	if dur == 0 {
		return 0
	}
	return float64(self) / float64(dur)
}

// selfPerCall is a layer's mean self time per call, in ns.
func (lt layerTotals) selfPerCall(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.selfNs[name]) / float64(lt.calls[name])
}

// durPerCall is a layer's mean span duration per call, in ns.
func (lt layerTotals) durPerCall(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.durNs[name]) / float64(lt.calls[name])
}

// write stores the spans as JSON lines, one span per line, in the order
// they were recorded; parent is the line index of the parent span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"calls\":%d}\n",
			s.name, s.start, s.end, s.parent, s.req, s.calls)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
