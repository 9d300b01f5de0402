package sweep

// FuzzSweepDecode hardens the POST /v1/sweeps input path, mirroring
// FuzzSpecDecode in internal/engine: arbitrary bytes through DecodeSpec
// must produce a SweepSpec or an error, never a panic — and any input
// that expands must expand *stably*: its canonical encoding must itself
// decode strictly and re-expand to the same content address and the
// same per-point hashes (otherwise the job ID would depend on how many
// times a sweep bounced through the wire format).
//
// It is also the oracle of the derived points and of the hand-written
// encodings: every point's Canonical — JSON and hash — is what
// engine.MakeCanonical makes of the point's Spec, the sweep's
// canonical JSON is json.Marshal's, and so are the bytes of a settled
// result over the sweep (ok, cached and failed points, the input
// itself as the error text), whose coordinates are re-derived from
// the axes.
//
//	go test ./internal/sweep -run '^$' -fuzz FuzzSweepDecode -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"qla/internal/engine"
)

func FuzzSweepDecode(f *testing.F) {
	for _, seed := range []string{
		`{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[1,2]}]}`,
		`{"base":{"experiment":"ecc"},"axes":[{"field":"machine.param_set","values":["expected","current"]},{"field":"machine.bandwidth","values":[1,2,4]}]}`,
		`{"base":{"experiment":"equation2","params":{"pth":0.001}},"axes":[{"field":"params.level","values":[1,2,3]}]}`,
		`{"base":{"experiment":"run-chain","params":{"trials":10}},"axes":[{"field":"params.links","values":[2,3]}]}`,
		`{"base":{"experiment":"figure7"},"axes":[{"field":"params.phys-errors","values":[[0.001],[0.002]]}]}`,
		`{"base":{"experiment":"table1"},"axes":[{"field":"machine.level","values":[1]}]}`,
		`{"base":{"experiment":"figure7","params":{"phys-errors":[0.002],"backend":"batch"}},"axes":[{"field":"params.trials","values":[64,128]},{"field":"params.seed","values":[1,2]}]}`,
		`{"base":{"experiment":"figure7"},"axes":[{"field":"params.backend","values":["batch","gpu"]}]}`,
		`{"base":{"experiment":"figure7","params":{"phys-errors":[]}},"axes":[{"field":"params.phys-errors","values":[[],[0.001]]}]}`,
		`{"base":{"experiment":"equation2","machine":{"tech":{"Name":"lab<&>","CellSizeUM":10}}},"axes":[{"field":"params.p0","values":[1e-7,0.001]},{"field":"machine.bandwidth","values":[1,3]}]}`,
		`{"base":{"experiment":"ec-latency"},"axes":[]}`,
		`{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[0,2]}]}`,
		`{"axes":[{"field":"machine.level","values":[1]}]}`,
		`{"base":{"experiment":"ec-latency"},"axes":[{"field":"machine.level","values":[1]}]} extra`,
		`{"bogus":1}`,
		`{"base":`,
		`null`,
		`[]`,
		"\xff\xfe",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSpec(raw)
		if err != nil {
			return // malformed input must error, and it did
		}
		sw, err := Expand(s)
		if err != nil {
			return // decodes but fails validation: also fine
		}
		if want, err := json.Marshal(sw.Spec); err != nil || !bytes.Equal(sw.JSON, want) {
			t.Fatalf("sweep JSON is not json.Marshal's (err %v):\n got %s\nwant %s", err, sw.JSON, want)
		}
		for i, pt := range sw.Points {
			want, err := engine.MakeCanonical(pt.Canonical.Spec)
			if err != nil {
				t.Fatalf("point %d does not canonicalize: %v", i, err)
			}
			if !bytes.Equal(pt.Canonical.JSON, want.JSON) || pt.Canonical.Hash != want.Hash {
				t.Fatalf("point %d derived\n %s\nMakeCanonical\n %s", i, pt.Canonical.JSON, want.JSON)
			}
		}
		back, err := DecodeSpec(sw.JSON)
		if err != nil {
			t.Fatalf("canonical sweep JSON fails strict decode: %v\n%s", err, sw.JSON)
		}
		again, err := Expand(back)
		if err != nil {
			t.Fatalf("canonical sweep JSON fails to re-expand: %v\n%s", err, sw.JSON)
		}
		if again.Hash != sw.Hash {
			t.Fatalf("sweep hash not stable across canonical round trip: %s vs %s\n%s", sw.Hash, again.Hash, sw.JSON)
		}
		if len(again.Points) != len(sw.Points) {
			t.Fatalf("point count changed across round trip: %d vs %d", len(sw.Points), len(again.Points))
		}
		for i := range sw.Points {
			if sw.Points[i].Canonical.Hash != again.Points[i].Canonical.Hash {
				t.Fatalf("point %d hash not stable across canonical round trip", i)
			}
		}

		res := synthResult(sw, func(i int, pr *PointResult) {
			pr.Elapsed, pr.Attempts = time.Duration(i), i%3
			switch i % 3 {
			case 0:
				pr.Status, pr.Result = "ok", json.RawMessage(`{"p":[1,"\u003c"]}`)
			case 1:
				pr.Status, pr.Cached, pr.Result = "ok", true, json.RawMessage(`7`)
			default:
				pr.Status, pr.Error = "error", string(raw)
			}
		})
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		settled, err := res.Settle(sw)
		if err != nil {
			t.Fatalf("settling a result of the sweep: %v", err)
		}
		var got bytes.Buffer
		if _, err := settled.WriteTo(&got); err != nil || !bytes.Equal(got.Bytes(), want) || settled.Len() != int64(len(want)) {
			t.Fatalf("settled result (err %v, Len %d) is not json.Marshal's:\n got %s\nwant %s", err, settled.Len(), got.Bytes(), want)
		}
	})
}
