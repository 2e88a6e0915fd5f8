package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/workload"
)

// AccuracyCell is one bar of the paper's Figs. 9–11: the distribution of
// recall, specificity and detection delay across runs for one
// (application, attack, scheme) combination.
type AccuracyCell struct {
	App    string
	Attack attack.Kind
	Scheme Scheme

	Recall      metrics.Distribution
	Specificity metrics.Distribution
	// Delay summarizes detection delays of the runs whose alarm had a
	// rising edge during the attack; DetectionRate is the fraction of runs
	// that detected the attack at all (including latched alarms, which
	// contribute no delay).
	Delay         metrics.Distribution
	DetectionRate float64
}

// Accuracy reproduces Figs. 9 (recall), 10 (specificity) and 11 (delay):
// c.Runs seeded runs for every application in apps, both attacks, and every
// scheme the paper evaluates for that application. The grid is executed on
// the parallel engine one telemetry stream at a time: every throttle-free
// scheme of an (app, attack, run) observes one shared stream. See
// Config.Parallel.
func (c Config) Accuracy(apps []string) ([]AccuracyCell, error) {
	if len(apps) == 0 {
		apps = workload.AppNames()
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := validateApps(apps); err != nil {
		return nil, err
	}
	// Every (attack, scheme) cell of one (app, run) pair profiles from the
	// same derived seed; share those Stage-1 passes across the grid.
	c.profiles = newProfileCache()
	type cellKey struct {
		app    string
		kind   attack.Kind
		scheme Scheme
	}
	var keys []cellKey
	for _, app := range apps {
		for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
			for _, scheme := range SchemesFor(app) {
				keys = append(keys, cellKey{app, kind, scheme})
			}
		}
	}

	jobs := make([]detectionJob, 0, len(keys)*c.Runs)
	for _, k := range keys {
		for run := 0; run < c.Runs; run++ {
			jobs = append(jobs, detectionJob{&c, k.app, k.kind, k.scheme, run})
		}
	}
	outs, err := runDetections(c.workers(), jobs, func(i int) string {
		j := jobs[i]
		return fmt.Sprintf("%s/%v/%s run %d", j.app, j.kind, j.scheme, j.run)
	})
	if err != nil {
		return nil, err
	}

	cells := make([]AccuracyCell, 0, len(keys))
	for i, k := range keys {
		var pool runPool
		for _, out := range outs[i*c.Runs : (i+1)*c.Runs] {
			pool.add(out)
		}
		cells = append(cells, AccuracyCell{
			App:           k.app,
			Attack:        k.kind,
			Scheme:        k.scheme,
			Recall:        pool.recall(),
			Specificity:   pool.specificity(),
			Delay:         pool.delay(),
			DetectionRate: pool.detectionRate(),
		})
	}
	return cells, nil
}

// validateApps reports the first unknown application name as the workload
// error, so a grid runner fails cleanly before it fans out.
func validateApps(apps []string) error {
	for _, app := range apps {
		if _, err := workload.AppProfile(app); err != nil {
			return err
		}
	}
	return nil
}
