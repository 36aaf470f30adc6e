package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// on the run's clock (see now). Parent is the span that caused this one (0
// for the root); Req groups the spans of one request (0 when no request id
// reaches the layer — nothing crosses evaluate.Server from outside).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
}

// maxSpans bounds the in-memory trace: selfplay_dist forwards ~20k tiny
// evaluations a second, and a trace that swaps defeats its purpose. Spans
// past the cap are counted, not kept.
const maxSpans = 1 << 19

// tracer collects spans in memory while on; the file is written only after
// the window has ended.
type tracer struct {
	on      atomic.Bool
	nextID  atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{spans: make([]span, 0, 1<<16)}
	t.nextID.Store(1)
	return t
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// bytes is the memory the kept spans occupy.
func (t *tracer) bytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.spans) * int(unsafe.Sizeof(span{}))
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its direct children cover
// (children are clipped to the parent and overlapping children are counted
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
