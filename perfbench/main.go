// Command perfbench is the repository benchmark. It starts real qlaserve
// processes on loopback, drives one named workload against them from a
// single load-generator process over at most two client connections,
// checks every output, and prints one JSON result line as the last line
// of standard output.
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// no tracing at all. With -trace 1 it carries the per-layer metrics: the
// servers' own /metrics counters diffed around the timed window, plus a
// traced in-process copy of the serving stack that pushes the same
// generated inputs through the public calls the handlers make.
//
// run.sh builds the server and this program from the checkout's sources
// and runs it from the repository root:
//
//	bash perfbench/run.sh --workload run-hot --seed 1 --seconds 30 --trace 0
//
// README.md explains the workloads and which layer each metric covers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: run-hot, run-cold, sweep-mixed or fleet-sweep")
	seed := flag.Uint64("seed", 1, "workload seed: every generated spec derives from it")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	server := flag.String("server", "", "path to the qlaserve binary")
	work := flag.String("work", ".bench_build/perfbench", "directory for server state, logs and span dumps")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *server, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, server, work string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if _, err := os.Stat(server); err != nil {
		return fmt.Errorf("qlaserve binary: %w", err)
	}
	in, err := newInputs(seed)
	if err != nil {
		return err
	}
	b := &bench{name: name, w: w, in: in, server: server, work: work, window: time.Duration(seconds * float64(time.Second))}
	var out *result
	if trace == 1 {
		out, err = b.traced()
	} else {
		out, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	b.rec.Seed = seed
	rec, err := json.Marshal(b.rec)
	if err != nil {
		return err
	}
	// The run record (provenance, sample counts, open-loop lateness,
	// the first failures) goes to standard error: standard output ends
	// with the result line alone.
	fmt.Fprintf(os.Stderr, "record: %s\n", rec)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
