package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval around a call into a layer. Parent indexes
// the span that caused it (-1 for a root); Start and End are offsets from
// the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory; a nil tracer records nothing, which is
// how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Start: time.Since(t.t0)})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.cur = t.spans[id].Parent
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) of root and every span below it.
func (t *tracer) selfTimes(root int) map[string]time.Duration {
	// Spans are appended in start order, so root's subtree is the
	// contiguous run of spans that start before root ends.
	end := root + 1
	for end < len(t.spans) && t.spans[end].Start < t.spans[root].End {
		end++
	}
	self := make([]time.Duration, end-root)
	for i := root; i < end; i++ {
		d := t.spans[i].End - t.spans[i].Start
		self[i-root] += d
		if i > root {
			self[t.spans[i].Parent-root] -= d
		}
	}
	out := map[string]time.Duration{}
	for i := root; i < end; i++ {
		out[t.spans[i].Name] += self[i-root]
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
