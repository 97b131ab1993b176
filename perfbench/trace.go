package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval: a call from this benchmark into a layer.
// Spans of one request (serve) or one round (simulations) share req.
type span struct {
	name   string
	parent int32 // index of the causing span, −1 for a root
	lane   int32 // trace lane: the client or loop that made the call
	req    int64
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer keeps spans in memory; write dumps them once the run is over.
// Safe for concurrent use (serve clients record from several goroutines).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int32, lane int32, req int64) int32 {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, req: req, start: now, end: -1})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes a span.
func (t *tracer) end(i int32) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes returns each span name's total self time: the span's
// duration minus the part of it its child spans cover. Children of one
// span never overlap (each caller is sequential), so the covered part is
// the children's summed duration. layer reports, for each name, whether
// its spans are calls into a layer: children whose name is not the
// benchmark's own (trace.*). Roots are the caller's loop or request, so
// their self time is what no layer span covers.
func (t *tracer) selfTimes() (self map[string]time.Duration, layer map[string]bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self = map[string]time.Duration{}
	layer = map[string]bool{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self[s.name] += time.Duration(s.end - s.start - child[i])
		layer[s.name] = s.parent >= 0 && !strings.HasPrefix(s.name, "trace.")
	}
	return self, layer
}

// write dumps the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprint(w, `{"traceEvents":[`)
	sep := ""
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		w.WriteString(sep)
		sep = ","
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}`,
			name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.req)
		w.WriteByte('\n')
	}
	fmt.Fprint(w, "]}\n")
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// account prints each span name's self time and share of wall and
// records account.unaccounted_share = 1 − Σ layer self time / (wall ·
// lanes), where lanes is the number of concurrent callers that recorded
// spans. The roots' and the benchmark's own spans' self time is what the
// share counts as unaccounted.
func (r *report) account(t *tracer, wall time.Duration, lanes int) {
	self, layer := t.selfTimes()
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		if layer[n] {
			total += d
		}
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	budget := float64(wall) * float64(lanes)
	for _, n := range names {
		kind := "layer"
		if !layer[n] {
			kind = "other"
		}
		r.note("%s %-24s self_s=%.6f share=%.4f", kind, n, self[n].Seconds(), float64(self[n])/budget)
	}
	r.set("account.unaccounted_share", 1-float64(total)/budget, "ratio", 0, "")
}
