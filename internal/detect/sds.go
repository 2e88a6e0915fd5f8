package detect

import "fmt"

// SDS is the combined Statistical-based Detection System of §5.1: for
// non-periodic applications it is SDS/B alone; for periodic applications it
// requires both SDS/B and SDS/P to agree before raising an alarm, which
// eliminates most residual false positives of either scheme (the paper
// measures a 3–6% specificity improvement from the conjunction).
//
// Its rule is the B∧P conjunction over one front end: every raw sample
// passes through a single MA/EWMA pair, and each window is handed to both
// sub-rules, which keep their own ledgers.
type SDS struct {
	pipeline
	b *SDSB
	p *SDSP // nil for non-periodic applications
}

var _ Detector = (*SDS)(nil)

// NewSDS assembles the combined detector from a Stage-1 profile: SDS/P is
// attached automatically when the profile is periodic.
func NewSDS(prof Profile, cfg Config) (*SDS, error) {
	fe, err := newFrontEnd(cfg)
	if err != nil {
		return nil, fmt.Errorf("detect: SDS: %w", err)
	}
	b, err := newSDSB(prof, cfg, fe)
	if err != nil {
		return nil, fmt.Errorf("detect: SDS: %w", err)
	}
	d := &SDS{b: b}
	if prof.Periodic {
		if d.p, err = newSDSP(prof, cfg, fe); err != nil {
			return nil, fmt.Errorf("detect: SDS: %w", err)
		}
	}
	d.bind(NameSDS, fe, d)
	return d, nil
}

// Boundary returns the embedded SDS/B detector. It shares this detector's
// averagers and EWMAs, so feed samples to the SDS, not to it.
func (d *SDS) Boundary() *SDSB { return d.b }

// Periodic returns the embedded SDS/P detector, or nil for non-periodic
// applications. Like Boundary, it is driven through the SDS.
func (d *SDS) Periodic() *SDSP { return d.p }

// decide runs both sub-rules on the window, records their alarm states in
// their own ledgers, and returns the conjunction.
func (d *SDS) decide(w *window) bool {
	d.b.record(w, d.b.decide(w), d.b)
	if d.p == nil {
		return d.b.alarmed
	}
	d.p.record(w, d.p.decide(w), d.p)
	return d.b.alarmed && d.p.alarmed
}

func (d *SDS) evidence(*window) (Metric, string) {
	metric, reason := MetricAccess, "SDS/B boundary violation"
	if n := len(d.b.alarms); n > 0 {
		metric, reason = d.b.alarms[n-1].Metric, d.b.alarms[n-1].Reason
	}
	if d.p != nil {
		reason += "; confirmed by SDS/P period deviation"
	}
	return metric, reason
}
