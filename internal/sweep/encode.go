package sweep

import (
	"bytes"
	"strconv"

	"qla/internal/engine"
)

// MarshalChunks returns the JSON encoding of r — byte for byte what
// json.Marshal(r) produces — as chunks that, written back to back, form
// the document. The metadata is written once, by the engine's JSON
// appenders, into one exact-size buffer; each point's Result payload is
// a chunk of its own, aliasing r's bytes (for a cached point, the cache
// entry's), so the payloads are neither copied nor scanned. That is
// byte-identical to json.Marshal because stored payloads are already
// what it emits for a RawMessage: compact, HTML-escaped JSON, marshaled
// by the engine and validated by the cache on the way in from disk or
// a peer.
func (r *Result) MarshalChunks() ([][]byte, error) {
	buf := make([]byte, 0, 256+192*len(r.Points))
	buf = engine.AppendString(append(buf, `{"experiment":`...), r.Experiment)
	buf = engine.AppendString(append(buf, `,"sweep_hash":`...), r.SweepHash)
	buf = append(buf, `,"fields":`...)
	if r.Fields == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, f := range r.Fields {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = engine.AppendString(buf, f)
		}
		buf = append(buf, ']')
	}
	buf = appendInt(buf, `,"total":`, int64(r.Total))
	buf = appendInt(buf, `,"ok":`, int64(r.OK))
	buf = appendInt(buf, `,"cached":`, int64(r.Cached))
	buf = appendInt(buf, `,"failed":`, int64(r.Failed))
	buf = appendNonZero(buf, `,"retried":`, r.Retried)
	buf = appendNonZero(buf, `,"retry_attempts":`, r.RetryAttempts)
	buf = appendInt(buf, `,"elapsed_ns":`, int64(r.Elapsed))
	if r.Points == nil {
		return [][]byte{append(buf, `,"points":null}`...)}, nil
	}
	buf = append(buf, `,"points":[`...)
	var (
		cuts     []int // payloads[k] splices into the metadata at cuts[k]
		payloads [][]byte
		err      error
	)
	for i := range r.Points {
		pt := &r.Points[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendInt(buf, `{"index":`, int64(pt.Index))
		buf = append(buf, `,"coords":`...)
		if pt.Coords == nil {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, '[')
			for j, c := range pt.Coords {
				if j > 0 {
					buf = append(buf, ',')
				}
				if buf, err = engine.AppendValue(buf, c); err != nil {
					return nil, err
				}
			}
			buf = append(buf, ']')
		}
		buf = engine.AppendString(append(buf, `,"spec_hash":`...), pt.SpecHash)
		buf = engine.AppendString(append(buf, `,"status":`...), pt.Status)
		if pt.Cached {
			buf = append(buf, `,"cached":true`...)
		}
		buf = appendInt(buf, `,"elapsed_ns":`, int64(pt.Elapsed))
		if pt.Error != "" {
			buf = engine.AppendString(append(buf, `,"error":`...), pt.Error)
		}
		buf = appendNonZero(buf, `,"attempts":`, pt.Attempts)
		if len(pt.Result) > 0 {
			buf = append(buf, `,"result":`...)
			cuts = append(cuts, len(buf))
			payloads = append(payloads, pt.Result)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, "]}"...)
	// A finished job holds the metadata for its lifetime: keep it in a
	// buffer of its exact size, not the grown one.
	meta := bytes.Clone(buf)
	chunks := make([][]byte, 0, 2*len(payloads)+1)
	prev := 0
	for k, cut := range cuts {
		chunks = append(chunks, meta[prev:cut], payloads[k])
		prev = cut
	}
	return append(chunks, meta[prev:]), nil
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
