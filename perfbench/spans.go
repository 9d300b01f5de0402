package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call: a layer boundary the benchmark's own code
// wraps. Spans of one request share Req; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
	// Attr qualifies the outcome where a layer has two paths
	// (cache.get_or_compute: "hit" or "miss").
	Attr string `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every finished span in memory until the run ends.
type spanLog struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	log *spanLog
	s   span
}

// maxTraced bounds the requests whose spans are kept, so the traced run
// of a fast workload stays small in memory and on disk.
const maxTraced = 20000

// root starts the first span of a new request. Past maxTraced requests
// it returns an untraced span, whose children are untraced too.
func (l *spanLog) root(name string) *openSpan {
	req := l.reqs.Add(1)
	if req > maxTraced {
		return &openSpan{}
	}
	return l.open(name, 0, req)
}

func (l *spanLog) open(name string, parent, req int64) *openSpan {
	return &openSpan{log: l, s: span{
		ID: l.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(l.origin)),
	}}
}

// child starts a span caused by o.
func (o *openSpan) child(name string) *openSpan {
	if o.log == nil {
		return &openSpan{}
	}
	return o.log.open(name, o.s.ID, o.s.Req)
}

func (o *openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = int64(time.Since(o.log.origin))
	o.log.add(o.s)
}

// record adds an already-finished child of o spanning [from, to].
func (o *openSpan) record(name string, from, to time.Time) {
	if o.log == nil {
		return
	}
	s := o.log.open(name, o.s.ID, o.s.Req).s
	s.Start, s.End = int64(from.Sub(o.log.origin)), int64(to.Sub(o.log.origin))
	o.log.add(s)
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.spans)
}

// write dumps every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
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

type spanKey struct{}

func withSpan(ctx context.Context, o *openSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, o)
}

func spanFrom(ctx context.Context) *openSpan {
	o, _ := ctx.Value(spanKey{}).(*openSpan)
	return o
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (a
// parent waiting on concurrent work) count once, and a child running
// past its parent's end counts only inside the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	total, cur := int64(0), lo
	for _, iv := range ivs {
		from, to := max(iv[0], cur), min(iv[1], hi)
		if to > from {
			total += to - from
			cur = to
		}
	}
	return total
}
