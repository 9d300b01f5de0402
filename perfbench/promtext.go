package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// readFamilies lists every /metrics family the benchmark reads. A
// family missing from a scrape fails the run: a counter-store change
// must not silently blank a per-layer metric. A missing label value
// (say, a lease route no request hit) still reads as zero.
var readFamilies = []string{
	"qla_http_requests_total",
	"qla_http_request_duration_seconds",
	"qla_cache_hits_total",
	"qla_cache_misses_total",
	"qla_sched_queue_wait_seconds",
	"qla_sweep_point_duration_seconds",
}

// journalFamilies are read too when the replicas keep a journal.
var journalFamilies = []string{
	"qla_journal_append_seconds",
	"qla_journal_fsync_seconds",
}

// exposition is one parsed Prometheus text scrape.
type exposition struct {
	families map[string]bool
	samples  []sample
}

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

func parseExposition(r io.Reader) (*exposition, error) {
	e := &exposition{families: map[string]bool{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, _, ok := strings.Cut(rest, " "); ok {
				e.families[name] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		e.samples = append(e.samples, s)
	}
	return e, sc.Err()
}

func parseSample(line string) (sample, error) {
	cut := strings.LastIndexByte(line, ' ')
	if cut < 0 {
		return sample{}, fmt.Errorf("metrics line without a value: %q", line)
	}
	v, err := strconv.ParseFloat(line[cut+1:], 64)
	if err != nil {
		return sample{}, fmt.Errorf("metrics line %q: %w", line, err)
	}
	series := line[:cut]
	s := sample{name: series, labels: map[string]string{}, value: v}
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return s, nil
	}
	s.name = series[:open]
	body := strings.TrimSuffix(series[open+1:], "}")
	for body != "" {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return sample{}, fmt.Errorf("metrics labels %q", series)
		}
		key := body[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(body) && body[i] != '"'; i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				if body[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(body[i])
		}
		if i >= len(body) {
			return sample{}, fmt.Errorf("metrics labels %q: unterminated value", series)
		}
		s.labels[key] = val.String()
		body = strings.TrimPrefix(body[i+1:], ",")
	}
	return s, nil
}

// sum adds every sample of the series name whose labels include match.
func (e *exposition) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range e.samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// byLabel adds the samples of the series name, grouped by one label.
func (e *exposition) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range e.samples {
		if s.name == name {
			out[s.labels[label]] += s.value
		}
	}
	return out
}

// guard fails when a family the benchmark reads is absent.
func (e *exposition) guard(journal bool) error {
	families := readFamilies
	if journal {
		families = append(slices.Clone(families), journalFamilies...)
	}
	var missing []string
	for _, f := range families {
		if !e.families[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("/metrics no longer exports %s, which the benchmark reads", strings.Join(missing, ", "))
	}
	return nil
}

// scrapes holds one scrape per replica, taken at the same moment.
type scrapes []*exposition

// delta returns after − before of a series summed over replicas.
func delta(before, after scrapes, name string, match map[string]string) float64 {
	d := 0.0
	for i := range after {
		d += after[i].sum(name, match) - before[i].sum(name, match)
	}
	return d
}

// histMean returns the mean of a histogram family over the window
// between two scrapes, in the family's unit (seconds), or 0 with no
// observations.
func histMean(before, after scrapes, name string, match map[string]string) float64 {
	n := delta(before, after, name+"_count", match)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum", match) / n
}
