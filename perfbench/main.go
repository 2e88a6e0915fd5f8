// Command perfbench is the repository's benchmark: it runs one named
// workload against the real detection planes, checks their outputs, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) as one
// JSON object on the last line of standard output. See README.md for the
// workloads and what each metric should move.
//
//	perfbench -sdsd <sdsd binary> --workload wire-bin --seed 1 --seconds 10 --trace 0
//
// Run it through run.sh, which builds both binaries from the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: the checked outcome and its metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed with the metrics but kept out of the JSON result:
	// figures that explain a run (counts, tails, references) without being
	// one of the benchmark's declared metrics.
	notes map[string]metric
}

func newReport() *report {
	return &report{Metrics: make(map[string]metric), notes: make(map[string]metric)}
}

func (r *report) note(name string, value float64, unit string) {
	r.notes[name] = metric{Value: value, Unit: unit}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// count adds checked operations and failures.
func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// params are one run's settings.
type params struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	sdsd     string
	out      string
	// tr records spans around calls into the program; nil when untraced.
	tr *tracer
}

var workloads = map[string]func(params, *report) error{
	"wire-bin": func(p params, r *report) error { return runWireWorkload(p, r, true) },
	"wire-csv": func(p params, r *report) error { return runWireWorkload(p, r, false) },
	"grid":     runGridWorkload,
	"cloudsim": runCloudWorkload,
}

func main() {
	var p params
	var seconds float64
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: wire-bin, wire-csv, grid or cloudsim")
	flag.Uint64Var(&p.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&p.sdsd, "sdsd", "", "sdsd binary the wire workloads launch")
	flag.StringVar(&p.out, "out", ".bench_build/trace", "directory for traced runs' span files")
	flag.Parse()
	p.dur = time.Duration(seconds * float64(time.Second))
	p.trace = trace == 1
	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	fn, ok := workloads[p.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want wire-bin, wire-csv, grid or cloudsim)", p.workload)
	}
	if p.dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if p.sdsd == "" {
		return fmt.Errorf("-sdsd is required (run through perfbench/run.sh)")
	}
	r := newReport()
	var err error
	if p.trace {
		err = runTraced(p, r, fn)
	} else {
		err = fn(p, r)
	}
	if err != nil {
		return err
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	r.Correct = r.Failed == 0
	printReport(p, r)
	return nil
}

// printReport prints one human-readable line per metric, then the JSON
// result as the last line.
func printReport(p params, r *report) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", p.workload, p.seed, p.dur.Seconds(), p.trace)
	for _, set := range []map[string]metric{r.Metrics, r.notes} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			fmt.Printf("%-48s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		}
	}
	fmt.Printf("%-48s %14s %s\n", "failed_frac",
		strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', 6, 64),
		fmt.Sprintf("(%d of %d)", r.Failed, r.Attempted))
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}
