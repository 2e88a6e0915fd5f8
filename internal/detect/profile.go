package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
)

// Profile is the Stage-1 output of SDS: the normal-behaviour statistics of
// one application, collected while the VM is known to be attack-free
// (immediately after it is started or migrated, §4.2.1). SDS/B uses the
// EWMA mean/σ per counter; SDS/P uses the MA-series period.
type Profile struct {
	// App names the profiled application.
	App string
	// Windows is the number of MA windows the profile was built from.
	Windows int

	// MeanAccess and StdAccess are μ_E and σ_E of the EWMA'd AccessNum.
	MeanAccess, StdAccess float64
	// MeanMiss and StdMiss are μ_E and σ_E of the EWMA'd MissNum.
	MeanMiss, StdMiss float64

	// Periodic reports whether the application shows a stable repeating
	// MA pattern (the Stage-1 periodicity check).
	Periodic bool
	// PeriodMA is the period in MA windows (0 when not periodic). The
	// paper's FaceNet example has PeriodMA ≈ 17.
	PeriodMA int
}

// Bounds returns the SDS/B normal range [μ−kσ, μ+kσ] for the given counter.
func (p Profile) Bounds(metric Metric, k float64) (lo, hi float64, err error) {
	var mean, std float64
	switch metric {
	case MetricAccess:
		mean, std = p.MeanAccess, p.StdAccess
	case MetricMiss:
		mean, std = p.MeanMiss, p.StdMiss
	default:
		return 0, 0, fmt.Errorf("detect: no bounds for metric %v", metric)
	}
	return mean - k*std, mean + k*std, nil
}

// BuildProfile computes a Profile from attack-free PCM samples using the
// pipeline of §4.1 (MA with window W and step ΔW, then EWMA with factor α).
// It needs enough samples for a statistically useful number of MA windows.
// It is the batch form of Profiler.
func BuildProfile(app string, samples []pcm.Sample, cfg Config) (Profile, error) {
	p, err := NewProfiler(app, cfg)
	if err != nil {
		return Profile{}, err
	}
	for _, s := range samples {
		p.Observe(s)
	}
	return p.Profile()
}

// Profiler is Stage 1 as a stream: it folds each attack-free sample into
// the MA series the profile is computed from, so profiling holds one value
// per MA window instead of the whole sample window.
type Profiler struct {
	app      string
	cfg      Config
	a, m     *timeseries.MovingAverager
	maA, maM []float64
	n        int // samples observed
}

// NewProfiler starts profiling app under cfg.
func NewProfiler(app string, cfg Config) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		return nil, err
	}
	m, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		return nil, err
	}
	return &Profiler{app: app, cfg: cfg, a: a, m: m}, nil
}

// Observe folds in the next attack-free sample.
func (p *Profiler) Observe(s pcm.Sample) {
	p.n++
	if v, ok := p.a.Push(s.Access); ok {
		p.maA = append(p.maA, v)
	}
	if v, ok := p.m.Push(s.Miss); ok {
		p.maM = append(p.maM, v)
	}
}

// Profile computes the profile of the samples observed so far.
func (p *Profiler) Profile() (Profile, error) {
	cfg := p.cfg
	const minWindows = 20
	need := cfg.W + (minWindows-1)*cfg.DW
	if p.n < need {
		return Profile{}, fmt.Errorf("detect: profiling %q needs at least %d samples (%d MA windows), got %d",
			p.app, need, minWindows, p.n)
	}
	ewA, err := timeseries.EWMASeries(p.maA, cfg.Alpha)
	if err != nil {
		return Profile{}, err
	}
	ewM, err := timeseries.EWMASeries(p.maM, cfg.Alpha)
	if err != nil {
		return Profile{}, err
	}

	prof := Profile{
		App:        p.app,
		Windows:    len(p.maA),
		MeanAccess: timeseries.Mean(ewA),
		StdAccess:  timeseries.StdDev(ewA),
		MeanMiss:   timeseries.Mean(ewM),
		StdMiss:    timeseries.StdDev(ewM),
	}
	// Stage-1 periodicity check on the MA series (EWMA may smooth the
	// pattern away, §4.2.2 computes periods over MA).
	if period, ok := signal.IsPeriodic(p.maA, cfg.PeriodTolerance, periodOptions(cfg, 0)); ok {
		prof.Periodic = true
		prof.PeriodMA = period
	}
	return prof, nil
}

// maxProfilePeriod caps the MA-window period the Stage-1 check will accept
// (60 windows = 30 s with Table 1 parameters). Longer "periods" are slow
// phase alternation, not the batch-processing cycles SDS/P targets — and a
// detector window of W_P = 2p would make period monitoring uselessly slow.
const maxProfilePeriod = 60

// periodOptions builds the estimator options SDS/P and the profiler share.
// knownPeriod > 0 narrows the minimum candidate period, stabilising
// estimates on short W_P windows; knownPeriod == 0 (profiling) caps the
// maximum period instead.
func periodOptions(cfg Config, knownPeriod int) signal.PeriodOptions {
	opts := signal.PeriodOptions{}
	if knownPeriod > 0 {
		opts.MinPeriod = max(2, knownPeriod/3)
		return opts
	}
	opts.MaxPeriod = maxProfilePeriod
	return opts
}
