// Command perfbench is the repository's benchmark: it serves a kvstore
// through server.Server on loopback TCP and drives it through client.Conn
// from the same process, on one of the workloads in workloads.json.
//
//	perfbench --workload mycsb_b --seed 1 --seconds 10 --trace 0
//
// Each run has a closed-loop phase (every connection keeps a window of
// batched frames in flight; gives throughput_ops_s) and an open-loop phase
// (single-op frames on a fixed ladder of offered rates; gives p50_us and
// p99_us at the lowest, reference, rate and max_rate_ops_s). Every response
// is checked; a persistent workload is also restarted and read back against
// a model of its acknowledged puts. With --trace 0 the last line of standard
// output is a JSON object with the end-to-end metrics; with --trace 1 it has
// the per-layer metrics, taken in a separate traced run that also writes a
// span dump and a self-time table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds the timed phases measure")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for store data and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, ok := cfg.Workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames(cfg), ", "))
		return 2
	}
	b := &bench{cfg: cfg, name: *name, w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	rep, err := b.run(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, b.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames(cfg *config) []string {
	var names []string
	for n := range cfg.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one run of one workload.
type bench struct {
	cfg     *config
	name    string
	w       *workloadConfig
	seed    int64
	seconds float64
	trace   bool
	out     string

	in         *inputs
	checkers   []*checker // one per connection
	layerTally tally      // ops the traced layer pass checked
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is a run's outcome.
type report struct {
	tally tally
	e2e   []metric // end-to-end metrics (the --trace 0 result)
	layer []metric // per-layer metrics (the --trace 1 result)
	info  []metric // printed only, see endToEnd
}

// print writes the metric table and, last, the JSON result line: the
// end-to-end metrics, or the per-layer ones for a traced run.
func (r *report) print(w io.Writer, traced bool) error {
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	fmt.Fprintf(w, "%-34s %16s  %s\n", "metric", "value", "unit")
	for _, m := range append(append([]metric{}, ms...), r.info...) {
		fmt.Fprintf(w, "%-34s %16.6g  %s\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.tally.failed == 0, Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]jm{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// errorRate is failed ops over attempted ops.
func errorRate(t tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
