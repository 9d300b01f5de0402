package sweep

import (
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"qla/internal/engine"
)

// Settled is the compact, immutable form of a finished sweep's Result
// that a job retains: per point a fixed record — the binary spec hash,
// timing, attempts, status flags and a reference to the payload (the
// cache's own bytes, never a copy) — with the header stored once,
// error texts kept aside, and coordinates re-derived from the point's
// index and the sweep's canonical axes, each axis value encoded once.
// WriteTo writes exactly the bytes json.Marshal gives for the Result,
// encoding the metadata on each call; it is safe for concurrent use.
type Settled struct {
	head Result // the header: every field but Points

	// coords holds the encoding of every axis value, axis by axis:
	// value k is coords[coordOff[k]:coordOff[k+1]], and axis a owns
	// values axisStart[a] to axisStart[a+1]-1.
	coords    []byte
	coordOff  []int
	axisStart []int

	points []settledPoint
	errs   []pointError // in index order
	n      int64        // the encoded length
}

// settledPoint is one point's record; its index is its position.
type settledPoint struct {
	hash     [32]byte
	elapsed  time.Duration
	payload  []byte
	attempts int32
	flags    uint8
}

const (
	pointOK uint8 = 1 << iota
	pointCached
)

// pointError is the error text of one point.
type pointError struct {
	index int
	text  string
}

// Settle returns r in its settled form. sw must be the sweep r ran:
// a point whose index or spec hash disagrees with sw, or whose status
// is neither "ok" nor "error", is an error rather than a result that
// would encode differently from r.
func (r *Result) Settle(sw *Sweep) (*Settled, error) {
	if len(r.Points) != len(sw.Points) {
		return nil, fmt.Errorf("sweep: settling %d points of a %d-point sweep", len(r.Points), len(sw.Points))
	}
	s := &Settled{head: *r}
	s.head.Points = nil
	if err := s.settleAxes(sw); err != nil {
		return nil, err
	}
	s.points = make([]settledPoint, len(r.Points))
	for i := range r.Points {
		pt, rec := &r.Points[i], &s.points[i]
		if pt.Index != i || pt.SpecHash != sw.Points[i].Canonical.Hash || !parseHash(&rec.hash, pt.SpecHash) {
			return nil, fmt.Errorf("sweep: point %d (index %d, spec %.12s) does not match the sweep", i, pt.Index, pt.SpecHash)
		}
		switch pt.Status {
		case "ok":
			rec.flags = pointOK
		case "error":
		default:
			return nil, fmt.Errorf("sweep: point %d has status %q", i, pt.Status)
		}
		if pt.Cached {
			rec.flags |= pointCached
		}
		if rec.attempts = int32(pt.Attempts); int(rec.attempts) != pt.Attempts {
			return nil, fmt.Errorf("sweep: point %d took %d attempts", i, pt.Attempts)
		}
		rec.elapsed, rec.payload = pt.Elapsed, pt.Result
		if pt.Error != "" {
			s.errs = append(s.errs, pointError{index: i, text: pt.Error})
		}
	}
	// Every value that could fail to encode was encoded above, and
	// io.Discard takes every write: the count is the exact length.
	s.n, _ = s.WriteTo(io.Discard)
	return s, nil
}

// settleAxes encodes every value of sw's canonical axes once. The
// axes must span sw's points, since each point's coordinates are
// derived from its index.
func (s *Settled) settleAxes(sw *Sweep) error {
	axes := sw.Spec.Axes
	if len(axes) > MaxAxes {
		return fmt.Errorf("sweep: %d axes exceeds the maximum %d", len(axes), MaxAxes)
	}
	span := 1
	s.axisStart = make([]int, len(axes)+1)
	for a, ax := range axes {
		span *= len(ax.Values)
		s.axisStart[a+1] = s.axisStart[a] + len(ax.Values)
	}
	if len(axes) == 0 || span == 0 || span != len(sw.Points) {
		return fmt.Errorf("sweep: %d axes spanning %d points, not the sweep's %d", len(axes), span, len(sw.Points))
	}
	s.coordOff = make([]int, 1, s.axisStart[len(axes)]+1)
	var err error
	for _, ax := range axes {
		for _, v := range ax.Values {
			if s.coords, err = engine.AppendValue(s.coords, v); err != nil {
				return fmt.Errorf("sweep: axis %q: %w", ax.Field, err)
			}
			s.coordOff = append(s.coordOff, len(s.coords))
		}
	}
	return nil
}

// parseHash decodes a lowercase hex SHA-256 — the only spelling the
// engine gives a content address — so that re-encoding restores it.
func parseHash(dst *[32]byte, h string) bool {
	if len(h) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, lo := unhex[h[2*i]], unhex[h[2*i+1]]
		if hi|lo > 0xf {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// unhex maps each lowercase hex digit to its value, any other byte to
// 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range []byte("0123456789abcdef") {
		t[c] = byte(i)
	}
	return t
}()

// Len returns the length of the encoded result.
func (s *Settled) Len() int64 { return s.n }

// WriteTo writes the encoded result to w: the metadata, encoded into a
// pooled buffer, and between its pieces each payload verbatim.
func (s *Settled) WriteTo(w io.Writer) (int64, error) {
	var n int64
	err := s.encode(func(p []byte) error {
		m, err := w.Write(p)
		n += int64(m)
		return err
	})
	return n, err
}

// encodeBufs recycles the metadata buffers of encode. A buffer is
// flushed at every payload, so it holds the header and one point's
// metadata — more only across points without payloads.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encode streams the JSON encoding of s — byte for byte what
// json.Marshal gives for the Result it settled — to emit: metadata
// pieces, each followed by a payload passed through unchanged. That
// is json.Marshal's encoding because a stored payload is already what
// it emits for a RawMessage: compact, HTML-escaped JSON, marshaled by
// the engine and validated by the cache on the way in from disk or a
// peer.
func (s *Settled) encode(emit func([]byte) error) error {
	bp := encodeBufs.Get().(*[]byte)
	buf, err := s.encodeInto((*bp)[:0], emit)
	*bp = buf
	encodeBufs.Put(bp)
	return err
}

func (s *Settled) encodeInto(buf []byte, emit func([]byte) error) ([]byte, error) {
	h := &s.head
	buf = engine.AppendString(append(buf, `{"experiment":`...), h.Experiment)
	buf = engine.AppendString(append(buf, `,"sweep_hash":`...), h.SweepHash)
	buf = append(buf, `,"fields":`...)
	if h.Fields == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, f := range h.Fields {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = engine.AppendString(buf, f)
		}
		buf = append(buf, ']')
	}
	buf = appendInt(buf, `,"total":`, int64(h.Total))
	buf = appendInt(buf, `,"ok":`, int64(h.OK))
	buf = appendInt(buf, `,"cached":`, int64(h.Cached))
	buf = appendInt(buf, `,"failed":`, int64(h.Failed))
	buf = appendNonZero(buf, `,"retried":`, h.Retried)
	buf = appendNonZero(buf, `,"retry_attempts":`, h.RetryAttempts)
	buf = appendInt(buf, `,"elapsed_ns":`, int64(h.Elapsed))
	buf = append(buf, `,"points":[`...)
	errs := s.errs
	// idx is the point's position on each axis: an odometer, the last
	// axis fastest, as Expand enumerates the grid.
	var idx [MaxAxes]int
	axes := len(s.axisStart) - 1
	for i := range s.points {
		p := &s.points[i]
		if i > 0 {
			buf = append(buf, ',')
			for a := axes - 1; a >= 0; a-- {
				if idx[a]++; idx[a] < s.axisStart[a+1]-s.axisStart[a] {
					break
				}
				idx[a] = 0
			}
		}
		buf = appendInt(buf, `{"index":`, int64(i))
		buf = append(buf, `,"coords":[`...)
		for a := range axes {
			if a > 0 {
				buf = append(buf, ',')
			}
			k := s.axisStart[a] + idx[a]
			buf = append(buf, s.coords[s.coordOff[k]:s.coordOff[k+1]]...)
		}
		buf = append(buf, `],"spec_hash":"`...)
		buf = hex.AppendEncode(buf, p.hash[:])
		if p.flags&pointOK != 0 {
			buf = append(buf, `","status":"ok"`...)
		} else {
			buf = append(buf, `","status":"error"`...)
		}
		if p.flags&pointCached != 0 {
			buf = append(buf, `,"cached":true`...)
		}
		buf = appendInt(buf, `,"elapsed_ns":`, int64(p.elapsed))
		if len(errs) > 0 && errs[0].index == i {
			buf = engine.AppendString(append(buf, `,"error":`...), errs[0].text)
			errs = errs[1:]
		}
		buf = appendNonZero(buf, `,"attempts":`, int(p.attempts))
		if len(p.payload) > 0 {
			buf = append(buf, `,"result":`...)
			if err := emit(buf); err != nil {
				return buf, err
			}
			if err := emit(p.payload); err != nil {
				return buf, err
			}
			buf = buf[:0]
		}
		buf = append(buf, '}')
	}
	buf = append(buf, "]}"...)
	return buf, emit(buf)
}

// appendInt appends a key and an integer value.
func appendInt(dst []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendNonZero appends a key and n unless n is zero (an omitempty
// integer field).
func appendNonZero(dst []byte, key string, n int) []byte {
	if n == 0 {
		return dst
	}
	return appendInt(dst, key, int64(n))
}
