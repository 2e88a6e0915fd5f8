package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
)

// SweepPoint is one x-value of a sensitivity figure (§5.3): the recall,
// specificity and delay distributions of SDS at one parameter setting.
type SweepPoint struct {
	Value       float64
	Recall      metrics.Distribution
	Specificity metrics.Distribution
	Delay       metrics.Distribution
}

// Sweep runs the accuracy experiment for the app at each parameter value,
// applying the value with apply (which mutates a copy of the SDS config).
// Both attacks are pooled, as the paper's sensitivity figures do not split
// them. Pooling goes through the shared runPool, whose per-side accounting
// excludes vacuous statistics: only attack-onset runs feed the recall and
// delay distributions (every run here has an onset; the guard matters for
// the ROC tournament, which mixes in Kind None cells). All (value, attack,
// run) combinations fan out onto the parallel engine together, and the
// values of one (attack, run) observe one shared telemetry stream; see
// Config.Parallel.
func (c Config) Sweep(app string, values []float64, apply func(*Config, float64) error) ([]SweepPoint, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("experiment: sweep needs at least one value")
	}
	if err := validateApps([]string{app}); err != nil {
		return nil, err
	}
	// Sweep values that leave the profiling parameters unchanged (e.g. the
	// SDS/P-only knobs W_P and ΔW_P) share Stage-1 profiles through the
	// cache; the key includes detect.Config, so values that do alter
	// profiling stay separate.
	c.profiles = newProfileCache()
	cfgs := make([]Config, len(values))
	for i, v := range values {
		cfg := c
		if err := apply(&cfg, v); err != nil {
			return nil, fmt.Errorf("apply %v: %w", v, err)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("config at %v: %w", v, err)
		}
		cfgs[i] = cfg
	}

	var (
		jobs []detectionJob
		at   []int // value index of each job
	)
	for vi := range values {
		for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
			for run := 0; run < cfgs[vi].Runs; run++ {
				jobs = append(jobs, detectionJob{&cfgs[vi], app, kind, SchemeSDS, run})
				at = append(at, vi)
			}
		}
	}
	outs, err := runDetections(c.workers(), jobs, func(i int) string {
		return fmt.Sprintf("%s/%v at %v run %d", app, jobs[i].kind, values[at[i]], jobs[i].run)
	})
	if err != nil {
		return nil, err
	}

	pools := make([]runPool, len(values))
	for i, vi := range at {
		pools[vi].add(outs[i])
	}
	points := make([]SweepPoint, 0, len(values))
	for i, v := range values {
		points = append(points, SweepPoint{
			Value:       v,
			Recall:      pools[i].recall(),
			Specificity: pools[i].specificity(),
			Delay:       pools[i].delay(),
		})
	}
	return points, nil
}

// SweepAlpha reproduces Fig. 13: sensitivity to the EWMA smoothing factor.
func (c Config) SweepAlpha(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		cfg.Detect.Alpha = v
		return nil
	})
}

// SweepK reproduces Fig. 14: sensitivity to the boundary factor k, with
// H_C re-derived from Chebyshev's inequality at 99.9% confidence, as the
// paper does.
func (c Config) SweepK(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		hc, err := detect.ChebyshevHC(v, 0.999)
		if err != nil {
			return err
		}
		cfg.Detect.K = v
		cfg.Detect.HC = hc
		return nil
	})
}

// SweepW reproduces Fig. 15: sensitivity to the MA window size W.
func (c Config) SweepW(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		cfg.Detect.W = int(v)
		if cfg.Detect.DW > cfg.Detect.W {
			cfg.Detect.DW = cfg.Detect.W
		}
		return nil
	})
}

// SweepDW reproduces Fig. 16: sensitivity to the MA sliding step ΔW.
func (c Config) SweepDW(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		cfg.Detect.DW = int(v)
		return nil
	})
}

// SweepWPFactor reproduces Fig. 17: sensitivity to the SDS/P window W_P,
// expressed as the multiple of the profiled period (the paper sweeps
// 2p–6p).
func (c Config) SweepWPFactor(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		cfg.Detect.WPFactor = int(v)
		return nil
	})
}

// SweepDWP reproduces Fig. 18: sensitivity to the SDS/P sliding step ΔW_P.
func (c Config) SweepDWP(app string, values []float64) ([]SweepPoint, error) {
	return c.Sweep(app, values, func(cfg *Config, v float64) error {
		cfg.Detect.DWP = int(v)
		return nil
	})
}
