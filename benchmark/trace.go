package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer (kvclient.Client.Send/Recv, or the direct core calls);
// spans inside the server are a later issue. Each worker appends to its
// own slice, so recording takes no lock; the slices are merged and
// written out when the run ends.

// Span names, by operation kind.
var (
	requestSpan = [opKinds]string{"request.put", "request.get", "request.delete"}
	coreSpan    = [opKinds]string{"core.put", "core.get", "core.delete"}
)

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for the root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's origin
	End    int64  `json:"end_ns"`
}

// spanLog is one worker's span buffer.
type spanLog struct {
	origin time.Time
	worker uint64
	next   uint64
	spans  []span
}

func (l *spanLog) add(parent, req uint64, name string, start, end time.Time) uint64 {
	l.next++
	id := l.worker<<40 | l.next
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	return id
}

// request records a finished operation: the root span [t0, t3] and its
// child core call [c0, c1] — or, for a network request, the two children
// send [t0, c0] and recv [c1, t3].
func (l *spanLog) request(kind int, network bool, t0, c0, c1, t3 time.Time) {
	l.next++
	req := l.worker<<40 | l.next
	root := l.add(0, req, requestSpan[kind], t0, t3)
	if network {
		l.add(root, req, "kvclient.send", t0, c0)
		l.add(root, req, "kvclient.recv", c1, t3)
		return
	}
	l.add(root, req, coreSpan[kind], c0, c1)
}

// selfTimes returns, per span name, each span's duration minus the part
// its children cover.
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID]))
	}
	return out
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
