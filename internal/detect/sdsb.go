package detect

import "fmt"

// SDSB is the Boundary-based Statistical Detection Scheme (paper §4.2.1).
// Its rule flags an attack when the smoothed value S_n leaves the profiled
// normal range [μ_E−kσ_E, μ_E+kσ_E] for H_C consecutive windows — a drop in
// AccessNum signals bus locking, a rise in MissNum signals LLC cleansing.
type SDSB struct {
	pipeline
	hc   int
	prof Profile

	loA, hiA float64
	loM, hiM float64

	violA      int
	violM      int
	windowHook func(WindowStat)
}

var _ Detector = (*SDSB)(nil)

// SDSBOption customizes an SDSB detector.
type SDSBOption interface{ applySDSB(*SDSB) }

type sdsbWindowHook func(WindowStat)

func (h sdsbWindowHook) applySDSB(d *SDSB) { d.windowHook = h }

// WithSDSBWindowHook registers a callback invoked at every MA window
// boundary with the preprocessed values — used to trace the EWMA series of
// the paper's Fig. 7.
func WithSDSBWindowHook(hook func(WindowStat)) SDSBOption {
	return sdsbWindowHook(hook)
}

// NewSDSB returns an SDS/B detector for an application with the given
// Stage-1 profile.
func NewSDSB(prof Profile, cfg Config, opts ...SDSBOption) (*SDSB, error) {
	fe, err := newFrontEnd(cfg)
	if err != nil {
		return nil, err
	}
	d, err := newSDSB(prof, cfg, fe)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o.applySDSB(d)
	}
	return d, nil
}

// newSDSB builds the SDS/B rule over an existing front end.
func newSDSB(prof Profile, cfg Config, fe frontEnd) (*SDSB, error) {
	if err := checkSigma(prof); err != nil {
		return nil, err
	}
	d := &SDSB{hc: cfg.HC, prof: prof}
	var err error
	if d.loA, d.hiA, err = prof.Bounds(MetricAccess, cfg.K); err != nil {
		return nil, err
	}
	if d.loM, d.hiM, err = prof.Bounds(MetricMiss, cfg.K); err != nil {
		return nil, err
	}
	d.bind(NameSDSB, fe, d)
	return d, nil
}

// Profile returns the profile the detector was built with.
func (d *SDSB) Profile() Profile { return d.prof }

// decide tracks condition C_n (Eq. 3) per counter.
func (d *SDSB) decide(w *window) bool {
	if d.windowHook != nil {
		d.windowHook(WindowStat{
			Index:      w.n,
			T:          w.t,
			MAAccess:   w.mA,
			MAMiss:     w.mM,
			EWMAAccess: w.eA,
			EWMAMiss:   w.eM,
		})
	}
	d.violA = nextViolationCount(d.violA, w.eA < d.loA || w.eA > d.hiA)
	d.violM = nextViolationCount(d.violM, w.eM < d.loM || w.eM > d.hiM)
	return d.violA >= d.hc || d.violM >= d.hc
}

func (d *SDSB) evidence(w *window) (Metric, string) {
	if d.violM >= d.hc {
		return MetricMiss, violationReason("MissNum", w.eM, d.loM, d.hiM)
	}
	return MetricAccess, violationReason("AccessNum", w.eA, d.loA, d.hiA)
}

// Violations returns the current consecutive-violation counts for the two
// counters (diagnostics and tests).
func (d *SDSB) Violations() (access, miss int) { return d.violA, d.violM }

func nextViolationCount(count int, violated bool) int {
	if !violated {
		return 0
	}
	return count + 1
}

func violationReason(counter string, v, lo, hi float64) string {
	if v < lo {
		return fmt.Sprintf("%s EWMA %.4g below normal range [%.4g, %.4g]", counter, v, lo, hi)
	}
	return fmt.Sprintf("%s EWMA %.4g above normal range [%.4g, %.4g]", counter, v, lo, hi)
}
