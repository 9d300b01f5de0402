package sweep

import (
	"bytes"
	"encoding/json"
)

// MarshalChunks returns the JSON encoding of r — byte for byte what
// json.Marshal(r) produces — as chunks that, written back to back, form
// the document. The metadata is encoded once into one exact-size
// buffer; each point's Result payload is a chunk of its own, aliasing
// r's bytes (for a cached point, the cache entry's), so the payloads
// are neither copied nor scanned. That is byte-identical to
// json.Marshal because stored payloads are already what it emits for
// a RawMessage: compact, HTML-escaped JSON, marshaled by the engine
// and validated by the cache on the way in from disk or a peer.
func (r *Result) MarshalChunks() ([][]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // escapes HTML exactly like json.Marshal
	// The envelope without its points ends in `"points":null}` (Points
	// is the last field); the encoder appends a newline to every value.
	head := *r
	head.Points = nil
	if err := enc.Encode(&head); err != nil {
		return nil, err
	}
	if r.Points == nil {
		buf.Truncate(buf.Len() - len("\n"))
		return [][]byte{buf.Bytes()}, nil
	}
	buf.Truncate(buf.Len() - len("null}\n"))
	buf.WriteByte('[')
	var (
		cuts     []int // payloads[k] splices into the metadata at cuts[k]
		payloads [][]byte
		pt       PointResult
	)
	for i := range r.Points {
		if i > 0 {
			buf.WriteByte(',')
		}
		// Without its payload a point ends in its last metadata field
		// (Result is the last field and omitempty); the payload goes
		// back in before the closing brace.
		pt = r.Points[i]
		payload := pt.Result
		pt.Result = nil
		if err := enc.Encode(&pt); err != nil {
			return nil, err
		}
		buf.Truncate(buf.Len() - len("}\n"))
		if len(payload) > 0 {
			buf.WriteString(`,"result":`)
			cuts = append(cuts, buf.Len())
			payloads = append(payloads, payload)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}")
	// A finished job holds the metadata for its lifetime: keep it in a
	// buffer of its exact size, not the encoder's grown one.
	meta := bytes.Clone(buf.Bytes())
	chunks := make([][]byte, 0, 2*len(payloads)+1)
	prev := 0
	for k, cut := range cuts {
		chunks = append(chunks, meta[prev:cut], payloads[k])
		prev = cut
	}
	return append(chunks, meta[prev:]), nil
}
