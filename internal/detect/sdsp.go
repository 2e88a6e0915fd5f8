package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/signal"
)

// SDSP is the Period-based Statistical Detection Scheme for periodic
// applications (paper §4.2.2). Its rule keeps the latest W_P moving
// averages of both cache counters, and every ΔW_P new values re-estimates
// their period with the DFT–ACF method; H_P consecutive rounds in which
// either counter's period deviates from the profiled normal period by more
// than the tolerance (20%) — or has no detectable period at all — raise the
// alarm.
//
// Both memory DoS attacks slow the victim's computation, so the period
// stretches under bus locking and LLC cleansing alike (Observation 2); the
// cleansing attack additionally disrupts the MissNum waveform directly.
type SDSP struct {
	pipeline
	cfg  Config
	prof Profile

	bufA, bufM []float64 // rings of the latest W_P MA values
	wp         int
	pos        int
	filled     bool

	// Steady-state scratch: the period estimator (FFT plans, periodogram,
	// ACF and candidate buffers), the linearized-window buffer the rings
	// are unrolled into, and the precomputed estimator options. Together
	// they make every estimation round allocation-free.
	est        *signal.PeriodEstimator
	winScratch []float64
	estOpts    signal.PeriodOptions

	sinceEstimate int
	devCount      int
	// The latest round's estimates and verdicts, the evidence of an alarm.
	estA, estM   signal.PeriodEstimate
	devA, devM   bool
	estimateHook func(PeriodStat)
}

var _ Detector = (*SDSP)(nil)

// PeriodStat is one SDS/P period estimate, exposed to hooks (paper Fig. 8b).
type PeriodStat struct {
	// T is the virtual time of the estimate.
	T float64
	// Metric is the counter the estimate was computed on.
	Metric Metric
	// Period is the estimated period in MA windows (0 when none found).
	Period int
	// Found reports whether a period was detected at all.
	Found bool
	// Deviant reports whether this estimate counted as a period change.
	Deviant bool
}

// SDSPOption customizes an SDSP detector.
type SDSPOption interface{ applySDSP(*SDSP) }

type sdspEstimateHook func(PeriodStat)

func (h sdspEstimateHook) applySDSP(d *SDSP) { d.estimateHook = h }

// WithSDSPEstimateHook registers a callback invoked at every period
// estimate (one per counter per estimation round) — used to trace the
// computed-period sequence of the paper's Fig. 8(b).
func WithSDSPEstimateHook(hook func(PeriodStat)) SDSPOption {
	return sdspEstimateHook(hook)
}

// NewSDSP returns an SDS/P detector. The profile must be periodic: SDS/P is
// only applicable to applications with repeating cache-access patterns.
func NewSDSP(prof Profile, cfg Config, opts ...SDSPOption) (*SDSP, error) {
	fe, err := newFrontEnd(cfg)
	if err != nil {
		return nil, err
	}
	d, err := newSDSP(prof, cfg, fe)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o.applySDSP(d)
	}
	return d, nil
}

// newSDSP builds the SDS/P rule over an existing front end.
func newSDSP(prof Profile, cfg Config, fe frontEnd) (*SDSP, error) {
	if !prof.Periodic || prof.PeriodMA < 2 {
		return nil, fmt.Errorf("detect: SDS/P requires a periodic profile, %q has none", prof.App)
	}
	wp := cfg.WPFactor * prof.PeriodMA
	d := &SDSP{
		cfg:        cfg,
		prof:       prof,
		wp:         wp,
		bufA:       make([]float64, 0, wp),
		bufM:       make([]float64, 0, wp),
		est:        signal.NewPeriodEstimator(),
		winScratch: make([]float64, wp),
		estOpts:    periodOptions(cfg, prof.PeriodMA),
	}
	d.bind(NameSDSP, fe, d)
	return d, nil
}

// WP returns the period-estimation window size W_P in MA values.
func (d *SDSP) WP() int { return d.wp }

// decide pushes the window's moving averages into the period-estimation
// rings and re-estimates every ΔW_P windows.
func (d *SDSP) decide(w *window) bool {
	if !d.filled {
		d.bufA = append(d.bufA, w.mA)
		d.bufM = append(d.bufM, w.mM)
		if d.filled = len(d.bufA) == d.wp; d.filled {
			d.estimate(w.t) // first full window: estimate immediately
		}
	} else {
		d.bufA[d.pos] = w.mA
		d.bufM[d.pos] = w.mM
		if d.pos++; d.pos == d.wp {
			d.pos = 0
		}
		if d.sinceEstimate++; d.sinceEstimate >= d.cfg.DWP {
			d.estimate(w.t)
		}
	}
	return d.devCount >= d.cfg.HP
}

// estimate runs DFT–ACF on both counters' current windows and updates the
// deviation count.
func (d *SDSP) estimate(t float64) {
	d.sinceEstimate = 0
	d.estA, d.devA = d.estimateMetric(t, MetricAccess, d.bufA)
	d.estM, d.devM = d.estimateMetric(t, MetricMiss, d.bufM)
	if d.devA || d.devM {
		d.devCount++
	} else {
		d.devCount = 0
	}
}

func (d *SDSP) evidence(*window) (Metric, string) {
	metric, est := MetricAccess, d.estA
	if d.devM && !d.devA {
		metric, est = MetricMiss, d.estM
	}
	if est.Period == 0 {
		return MetricPeriod, fmt.Sprintf("%s has no detectable period (normal period %d) for %d consecutive estimates",
			metric, d.prof.PeriodMA, d.devCount)
	}
	return MetricPeriod, fmt.Sprintf("%s period %d deviates >%.0f%% from normal period %d for %d consecutive estimates",
		metric, est.Period, d.cfg.PeriodTolerance*100, d.prof.PeriodMA, d.devCount)
}

// estimateMetric analyses one counter's window, fires the hook, and reports
// the estimate and whether it counts as a deviation.
func (d *SDSP) estimateMetric(t float64, metric Metric, ring []float64) (signal.PeriodEstimate, bool) {
	// Linearize the ring into the reusable scratch window (oldest first).
	win := d.winScratch
	copy(win, ring[d.pos:])
	copy(win[d.wp-d.pos:], ring[:d.pos])

	est, found := d.est.Estimate(win, d.estOpts)
	deviant := !found
	if found {
		diff := relDiff(float64(est.Period), float64(d.prof.PeriodMA))
		deviant = diff > d.cfg.PeriodTolerance
	}
	if d.estimateHook != nil {
		d.estimateHook(PeriodStat{T: t, Metric: metric, Period: est.Period, Found: found, Deviant: deviant})
	}
	return est, deviant
}

// Deviations returns the current consecutive-deviation count (diagnostics).
func (d *SDSP) Deviations() int { return d.devCount }

// relDiff returns |a−b| / max(|a|,|b|), 0 when both are zero. Inputs are
// non-negative (periods).
func relDiff(a, b float64) float64 {
	den := a
	if b > den {
		den = b
	}
	if den == 0 {
		return 0
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff / den
}
