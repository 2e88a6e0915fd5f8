package main

import (
	"fmt"
	"time"

	"github.com/memdos/sds/internal/experiment"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/workload"
)

// Grid shape: every application, both attacks, every scheme the harness
// evaluates for the application, gridRuns seeded runs per cell, on
// gridWorkers workers (one per core of the 2-core host).
const (
	gridRuns    = 3
	gridWorkers = 2
	setupReps   = 7
)

// gridConfig is the grid workload's experiment configuration at seed.
func gridConfig(seed uint64, workers int) experiment.Config {
	c := experiment.DefaultConfig()
	c.Seed = seed
	c.Runs = gridRuns
	c.Parallel = workers
	return c
}

// gridSamples counts the samples one Accuracy pass generates and observes:
// every detection run of every cell.
func gridSamples(c experiment.Config, cells int) int64 {
	return int64(cells) * int64(c.Runs) * int64(pcm.SampleCount(2*c.StageSeconds, c.Detect.TPCM))
}

// cellsKey renders cells for comparison. Formatting with %v keeps NaN
// fields comparable, which reflect.DeepEqual would not.
func cellsKey(cells []experiment.AccuracyCell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprintf("%v", c)
	}
	return out
}

// gridRef is the serial reference grid and how long it took.
type gridRef struct {
	cells []string
	wall  time.Duration
}

// gridReference runs the grid on one worker, the engine's bit-exactness
// reference for any worker count.
func gridReference(seed uint64, tr *tracer) (gridRef, error) {
	c := gridConfig(seed, 1)
	sp := tr.begin("experiment.accuracy_serial", -1, 0)
	start := time.Now()
	cells, err := c.Accuracy(workload.AppNames())
	wall := time.Since(start)
	tr.end(sp)
	if err != nil {
		return gridRef{}, fmt.Errorf("reference grid: %w", err)
	}
	return gridRef{cellsKey(cells), wall}, nil
}

// gridPass is one timed pass over the grid on gridWorkers workers, one
// Accuracy call per application, in application order.
type gridPass struct {
	walls   []time.Duration // per application
	samples []int64         // per application
	failed  int             // cells differing from the reference
	cells   int
}

// wall is the pass's total time.
func (p gridPass) wall() time.Duration {
	var t time.Duration
	for _, w := range p.walls {
		t += w
	}
	return t
}

// runGridPass runs the grid app by app. Every (attack, scheme) cell of an
// application profiles from the same seeds, and no profile is shared across
// applications, so the concatenated cells must equal the serial reference
// of the whole grid.
func runGridPass(seed uint64, ref gridRef, tr *tracer, id int64) (gridPass, error) {
	c := gridConfig(seed, gridWorkers)
	var got []string
	pass := gridPass{cells: len(ref.cells)}
	root := tr.begin("experiment.grid_pass", -1, id)
	for _, app := range workload.AppNames() {
		sp := tr.begin("experiment.accuracy", root, id)
		start := time.Now()
		cells, err := c.Accuracy([]string{app})
		wall := time.Since(start)
		tr.end(sp)
		if err != nil {
			return gridPass{}, fmt.Errorf("grid pass, %s: %w", app, err)
		}
		got = append(got, cellsKey(cells)...)
		pass.walls = append(pass.walls, wall)
		pass.samples = append(pass.samples, gridSamples(c, len(cells)))
	}
	tr.end(root)
	for i, want := range ref.cells {
		if i >= len(got) || got[i] != want {
			pass.failed++
		}
	}
	pass.failed += max(len(got)-len(ref.cells), 0)
	return pass, nil
}

// gridSetup times what must finish before the grid's first detection run
// can start: configuration validation, the first application's Stage-1
// profile and its detector.
func gridSetup(seed uint64) (float64, error) {
	c := gridConfig(seed, gridWorkers)
	var took []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, _, _, err := c.BuildDetector(workload.AppNames()[0], experiment.SchemeSDS, seed); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// runGridWorkload repeats the Accuracy grid for the measured time and
// checks every pass against the serial reference. Its operation is one pass
// over the grid: op_ms_p50 is the median-composed pass time.
func runGridWorkload(p params, r *report) error {
	setup, err := gridSetup(p.seed)
	if err != nil {
		return err
	}
	ref, err := gridReference(p.seed, nil)
	if err != nil {
		return err
	}
	// Each application's time is the median over passes; the pass time and
	// the throughput are composed from those medians, so a burst of
	// interference from other tenants of the host during one pass does not
	// move them, while every application's work still counts.
	var passes []gridPass
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < p.dur; i++ {
		pass, err := runGridPass(p.seed, ref, p.tr, int64(i))
		if err != nil {
			return err
		}
		r.count(pass.cells, pass.failed)
		passes = append(passes, pass)
	}
	var wall float64
	var samples int64
	for a := range passes[0].walls {
		var ws []float64
		for _, pass := range passes {
			ws = append(ws, pass.walls[a].Seconds())
		}
		wall += median(ws)
		samples += passes[0].samples[a]
	}
	rss, err := selfPeakRSS()
	if err != nil {
		return err
	}
	r.set("throughput_msamples_s", float64(samples)/wall/1e6, "Msamples/s")
	r.set("op_ms_p50", wall*1e3, "ms")
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", rss, "MiB")
	r.note("grid.passes", float64(len(passes)), "count")
	r.note("grid.serial_reference_ms", float64(ref.wall)/1e6, "ms")
	return nil
}
