// Package obs is a dependency-free instrumentation layer: typed
// Counter/Gauge/Histogram instruments with atomic hot paths, bounded
// label support, and a Registry that renders Prometheus text
// exposition format.
//
// Design notes:
//
//   - Instrument methods are nil-safe: a nil *Counter, *Gauge, or
//     *Histogram is a no-op, so library packages can carry optional
//     instruments without branching at every call site.
//   - Label cardinality is bounded per vec (maxSeries); once the cap
//     is reached new label combinations collapse into a single
//     "~overflow" child so a hostile or misbehaving client cannot grow
//     the registry without bound.
//   - The registry is the only counter store: subsystems increment the
//     instruments they register and hold no shadow counts of their
//     own. GaugeFunc registers pull-based gauges evaluated at scrape
//     time, for live state (occupancy, bytes held) rather than counts.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxSeries bounds the number of distinct label combinations a single
// vec will track.
const maxSeries = 512

// Overflow is the label value substituted for every label once a vec
// exceeds maxSeries distinct children.
const Overflow = "~overflow"

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed set of cumulative
// buckets. Bounds are upper-inclusive (an observation v lands in the
// first bucket with v <= bound, matching Prometheus "le" semantics).
// A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (summed across
// buckets at read time; the hot path only touches one bucket atomic
// plus the sum).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the cumulative count at each bound (len ==
// len(bounds)+1, last entry is the +Inf bucket == Count modulo racing
// observers).
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LatencyBuckets is the default layout for second-denominated latency
// histograms: 10µs to ~84s in 24 doubling steps.
var LatencyBuckets = ExpBuckets(1e-5, 2, 24)

// family is one exposition family: a name, help text, type, and a set
// of children (concrete instruments and/or pull-based funcs).
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu       sync.Mutex
	children map[string]*child // key: joined label values
	order    []string
	funcs    []funcSeries
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type funcSeries struct {
	labels map[string]string
	fn     func() float64
}

// Registry holds instrument families and renders them in Prometheus
// text exposition format.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help, typ string, labels []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: %s re-registered as %s, was %s", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, children: make(map[string]*child)}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or returns the existing) scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, "counter", nil)
	if f == nil {
		return nil
	}
	return f.child(nil).c
}

// Gauge registers (or returns the existing) scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(name, help, "gauge", nil)
	if f == nil {
		return nil
	}
	return f.child(nil).g
}

// Histogram registers (or returns the existing) scalar histogram with
// the given upper bounds (LatencyBuckets if nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.familyFor(name, help, "histogram", nil)
	if f == nil {
		return nil
	}
	return f.childH(nil, bounds).h
}

// GaugeFunc registers a pull-based gauge series with fixed labels,
// evaluated at scrape time. Multiple funcs may share one family name
// with different label sets.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	f := r.familyFor(name, help, "gauge", nil)
	if f == nil {
		return
	}
	f.mu.Lock()
	f.funcs = append(f.funcs, funcSeries{labels: labels, fn: fn})
	f.mu.Unlock()
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers (or returns the existing) labeled counter
// family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.familyFor(name, help, "counter", labels)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// With returns the counter for the given label values (one per label
// name, in registration order). Past the cardinality cap all new
// combinations share the overflow child. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).c
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers (or returns the existing) labeled histogram
// family with the given bounds (LatencyBuckets if nil).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.familyFor(name, help, "histogram", labels)
	if f == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return &HistogramVec{f: f, bounds: bounds}
}

// With returns the histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.childH(values, v.bounds).h
}

// Count returns the observation count summed over every child.
func (v *HistogramVec) Count() uint64 {
	if v == nil {
		return 0
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var n uint64
	for _, c := range v.f.children {
		n += c.h.Count()
	}
	return n
}

func (f *family) child(values []string) *child {
	return f.childH(values, nil)
}

func (f *family) childH(values []string, bounds []float64) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	if len(f.children) >= maxSeries {
		values = make([]string, len(f.labels))
		for i := range values {
			values[i] = Overflow
		}
		key = strings.Join(values, "\x00")
		if c, ok := f.children[key]; ok {
			return c
		}
	}
	c := &child{values: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		c.c = &Counter{}
	case "gauge":
		c.g = &Gauge{}
	case "histogram":
		if bounds == nil {
			bounds = LatencyBuckets
		}
		c.h = newHistogram(bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4). Families appear in registration order; series
// within a family are sorted by label values for determinism.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	funcs := append([]funcSeries(nil), f.funcs...)
	f.mu.Unlock()

	if len(children) == 0 && len(funcs) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range children {
		lbl := labelString(f.labels, c.values, "")
		switch f.typ {
		case "counter":
			fmt.Fprintf(b, "%s%s %d\n", f.name, lbl, c.c.Value())
		case "gauge":
			fmt.Fprintf(b, "%s%s %s\n", f.name, lbl, formatFloat(c.g.Value()))
		case "histogram":
			cum := c.h.BucketCounts()
			for i, bound := range c.h.bounds {
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, formatFloat(bound)), cum[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, lbl, formatFloat(c.h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, lbl, c.h.Count())
		}
	}
	for _, fs := range funcs {
		names := make([]string, 0, len(fs.labels))
		for k := range fs.labels {
			names = append(names, k)
		}
		sort.Strings(names)
		values := make([]string, len(names))
		for i, k := range names {
			values[i] = fs.labels[k]
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(names, values, ""), formatFloat(fs.fn()))
	}
}

// labelString renders {k="v",...}, appending le when non-empty.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
