package engine

// FuzzSpecDecode hardens the HTTP front door's input path: arbitrary
// bytes through DecodeSpec must produce a Spec or an error, never a
// panic — and any input that decodes and hashes must hash *stably*:
// its canonical JSON must itself decode strictly and canonicalize to
// the same content address (otherwise the cache key would depend on
// how many times a spec bounced through the wire format).
//
// It is also the oracle of the hand-written encoder: the canonical
// bytes of every spec that canonicalizes are json.Marshal's, and the
// input read as one string and as one float encodes as json.Marshal
// encodes it, failing exactly where json.Marshal fails.
//
//	go test ./internal/engine -run '^$' -fuzz FuzzSpecDecode -fuzztime 30s

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func FuzzSpecDecode(f *testing.F) {
	// Seed with the golden canonical specs plus shapes near the
	// validation edges.
	entries, err := os.ReadDir(specDir)
	if err != nil {
		f.Fatalf("reading %s (regenerate goldens with -update): %v", specDir, err)
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(specDir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{"experiment":"figure7","params":{"trials":64,"seed":11}}`,
		`{"experiment":"fig7","params":{"phys-errors":[0.004,0.008]}}`,
		`{"experiment":"shor","machine":{"param_set":"current","level":1}}`,
		`{"experiment":"ec-latency","machine":{"tech":{}}}`,
		`{"experiment":"figure7","params":{"seed":18446744073709551615}}`,
		`{"experiment":"figure7","params":{"trials":1e99}}`,
		`{"experiment":"figure7","params":{"trials":null}}`,
		`{"experiment":""}`,
		`{"experiment":`,
		`null`,
		`[]`,
		`{}`,
		`{"experiment":"table1"} trailing`,
		"\xff\xfe",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAgainstMarshal(t, string(raw), AppendString(nil, string(raw)), nil)
		if len(raw) >= 8 {
			f := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			got, err := appendFloat(nil, f)
			checkAgainstMarshal(t, f, got, err)
		}
		spec, err := DecodeSpec(raw)
		if err != nil {
			return // malformed input must error, and it did
		}
		if canon, err := Canonicalize(spec); err == nil {
			got, err := appendSpec(nil, canon)
			checkAgainstMarshal(t, canon, got, err)
		}
		c, err := MakeCanonical(spec)
		if err != nil {
			return // decodes but fails validation: also fine
		}
		if want, err := json.Marshal(c.Spec); err != nil || !bytes.Equal(c.JSON, want) {
			t.Fatalf("canonical JSON is not json.Marshal's (err %v):\n got %s\nwant %s", err, c.JSON, want)
		}
		hash := c.Hash
		// A spec that hashes must round-trip through its canonical JSON
		// to the same address.
		cj, err := CanonicalJSON(spec)
		if err != nil {
			t.Fatalf("SpecHash succeeded but CanonicalJSON failed: %v", err)
		}
		back, err := DecodeSpec(cj)
		if err != nil {
			t.Fatalf("canonical JSON fails strict decode: %v\n%s", err, cj)
		}
		hash2, err := SpecHash(back)
		if err != nil {
			t.Fatalf("canonical JSON fails to re-hash: %v\n%s", err, cj)
		}
		if hash != hash2 {
			t.Fatalf("hash not stable across canonical round trip: %s vs %s\n%s", hash, hash2, cj)
		}
	})
}
