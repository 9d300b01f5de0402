package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	render := func(seed uint64) string {
		in, err := newInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, op := range in.hot {
			b.Write(op.body)
			b.WriteString(op.hash)
		}
		for i := 0; i < 4; i++ {
			b.Write(in.coldRun(i).body)
			b.Write(in.coldSweep(i).body)
			b.Write(in.hotSweep().body)
		}
		return b.String()
	}
	a, again, other := render(7), render(7), render(8)
	if a != again {
		t.Fatal("the same seed generated different inputs")
	}
	if a == other {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestInputsShape(t *testing.T) {
	in, err := newInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.hot) != hotSetSize || len(in.hotByHash) != hotSetSize {
		t.Fatalf("working set has %d specs (%d distinct), want %d", len(in.hot), len(in.hotByHash), hotSetSize)
	}
	experiments := map[string]bool{}
	for _, op := range in.hot {
		experiments[op.spec.Experiment] = true
	}
	if len(experiments) < 4 {
		t.Fatalf("working set spans %d experiments, want several", len(experiments))
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		op := in.hotSweep()
		if seen[string(op.body)] {
			t.Fatalf("hot sweep %d repeats an earlier sweep", i)
		}
		seen[string(op.body)] = true
	}
	runs := map[string]bool{}
	for i := 0; i < 64; i++ {
		runs[in.coldRun(i).hash] = true
	}
	for i := 0; i < 8; i++ {
		for _, spec := range in.coldSweep(i).specs {
			op, err := newRunOp(spec)
			if err != nil {
				t.Fatal(err)
			}
			if runs[op.hash] {
				t.Fatalf("cold sweep %d shares a point with a cold run", i)
			}
			runs[op.hash] = true
		}
	}
}

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 60]: 50 units, not 60.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		// A child outliving its parent counts only inside it: [90, 100].
		{ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild is covered by its parent, not by the root.
		{ID: 5, Parent: 2, Start: 15, End: 25},
		{ID: 6, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 40, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestOverGroupsTakesTheMedianGroup(t *testing.T) {
	start := time.Unix(0, 0)
	var evs []event
	// Three groups of two events each, completing 1s, 2s and 4s apart:
	// 2/s, 1/s and 0.5/s; timings 1, 10 and 100.
	for i, gap := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		at := start
		if i > 0 {
			at = evs[len(evs)-1].at
		}
		v := []float64{1, 10, 100}[i]
		evs = append(evs, event{at: at.Add(gap / 2), v: v, n: 1}, event{at: at.Add(gap), v: v, n: 1})
	}
	if got := overGroups(start, evs, 2, perSecond); got != 1 {
		t.Errorf("median group rate %g, want 1", got)
	}
	if got := overGroups(start, evs, 2, timing(0.5)); got != 10 {
		t.Errorf("median group timing %g, want 10", got)
	}
	// Too few events for two groups: one pooled group.
	if got := overGroups(start, evs, 4, perSecond); got != 6.0/7 {
		t.Errorf("pooled rate %g, want 6/7", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range doc.Workloads {
		declared = append(declared, w.Name)
	}
	slices.Sort(declared)
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the program runs %s", got, want)
	}
	check := func(kind string, emitted []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(emitted) != len(declared) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json declares %d", kind, len(emitted), len(declared))
			return
		}
		for i, m := range emitted {
			if m.name != declared[i].Name || m.unit != declared[i].Unit {
				t.Errorf("%s %d: program emits %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, doc.EndToEnd)
	check("per_layer", layerMetrics, doc.PerLayer)
	seen := map[string]bool{}
	for _, name := range append(declared, metricNames()...) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
}

func metricNames() []string {
	var names []string
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
		names = append(names, m.name)
	}
	return names
}

func TestParseExposition(t *testing.T) {
	text := `# HELP qla_http_requests_total HTTP requests.
# TYPE qla_http_requests_total counter
qla_http_requests_total{route="POST /v1/run",status="200",tenant="default"} 7
qla_http_requests_total{route="GET /v1/cache/{hash}",status="404",tenant="a\"b"} 2
# TYPE qla_journal_fsync_seconds histogram
qla_journal_fsync_seconds_bucket{le="+Inf"} 4
qla_journal_fsync_seconds_sum 0.5
qla_journal_fsync_seconds_count 4
`
	e, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.sum("qla_http_requests_total", map[string]string{"route": "POST /v1/run"}); got != 7 {
		t.Errorf("run requests %g, want 7", got)
	}
	if got := e.byLabel("qla_http_requests_total", "tenant")[`a"b`]; got != 2 {
		t.Errorf("escaped tenant label reads %g, want 2", got)
	}
	empty, err := parseExposition(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := histMean(scrapes{empty}, scrapes{e}, "qla_journal_fsync_seconds", nil); got != 0.125 {
		t.Errorf("fsync mean %g, want 0.125", got)
	}
	if err := e.guard(false); err == nil || !strings.Contains(err.Error(), "qla_cache_hits_total") ||
		strings.Contains(err.Error(), "qla_journal_fsync_seconds") {
		t.Errorf("guard on a scrape without the cache families: %v", err)
	}
	if err := e.guard(true); err == nil || !strings.Contains(err.Error(), "qla_journal_append_seconds") {
		t.Errorf("guard of a journaled server on a scrape without journal appends: %v", err)
	}
}
