package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/timeseries"
)

// frontEnd is the preprocessing every window scheme shares: the moving
// averages M_n of the two counters (Eq. 1) and their EWMAs S_n (Eq. 2).
// It runs once per raw sample; rules only see its per-window output. It is
// held by value, so the per-sample path reaches the averagers in one load;
// copies share the averagers and EWMAs.
type frontEnd struct {
	maA, maM *timeseries.MovingAverager
	ewA, ewM *timeseries.EWMA
	n        int    // windows emitted so far
	w        window // the latest window, updated in place
}

// newFrontEnd validates cfg and builds the MA and EWMA pairs.
func newFrontEnd(cfg Config) (frontEnd, error) {
	var f frontEnd
	if err := cfg.Validate(); err != nil {
		return f, err
	}
	var err error
	if f.maA, err = timeseries.NewMovingAverager(cfg.W, cfg.DW); err != nil {
		return f, err
	}
	if f.maM, err = timeseries.NewMovingAverager(cfg.W, cfg.DW); err != nil {
		return f, err
	}
	if f.ewA, err = timeseries.NewEWMA(cfg.Alpha); err != nil {
		return f, err
	}
	f.ewM, err = timeseries.NewEWMA(cfg.Alpha)
	return f, err
}

// window is what the front end hands a rule once per MA window.
type window struct {
	n            int     // window index, from 0
	t            float64 // virtual time of the window's last raw sample
	mA, mM       float64 // moving averages M_n
	prevA, prevM float64 // smoothed values S_{n−1} (0 at n = 0)
	eA, eM       float64 // smoothed values S_n
}

// windowRule is a scheme's per-window decision over the front end's output.
type windowRule interface {
	// decide consumes one window and returns the scheme's alarm state.
	decide(w *window) bool
	// evidence names the counter and the reason of a rising edge at w.
	evidence(w *window) (Metric, string)
}

// pipeline is a window detector: a front end feeding a rule, whose alarm
// state the ledger records. Embedding it gives a scheme Observe, ObserveMA
// and the ledger's Detector methods; the scheme itself is the rule.
type pipeline struct {
	fe   frontEnd
	rule windowRule
	ledger
}

// bind wires the pipeline to its front end and rule.
func (p *pipeline) bind(name string, fe frontEnd, rule windowRule) {
	p.name, p.fe, p.rule = name, fe, rule
}

// Observe implements Detector. The two averagers share their geometry, so
// they emit together, once every ΔW samples.
func (p *pipeline) Observe(s pcm.Sample) {
	mA, ok := p.fe.maA.Push(s.Access)
	mM, _ := p.fe.maM.Push(s.Miss)
	if ok {
		p.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA implements WindowObserver: it feeds one window-level
// observation — the moving averages M_n of the two counters at virtual
// time t — past the averagers into the EWMA pair and the rule. It is the
// batch-observation entry point of the event-driven cloud simulator. Feed
// a detector through either Observe or ObserveMA, never both.
//
// The window is updated in place, field by field, and handed to the rule by
// pointer: building and copying it by value costs more than the rules' own
// arithmetic, because the wide copies stall on the narrow stores that just
// filled it.
func (p *pipeline) ObserveMA(t, mA, mM float64) {
	f := &p.fe
	w := &f.w
	w.n, w.t, w.mA, w.mM = f.n, t, mA, mM
	w.prevA, w.prevM = w.eA, w.eM
	w.eA, w.eM = f.ewA.Push(mA), f.ewM.Push(mM)
	f.n++
	p.record(w, p.rule.decide(w), p.rule)
}

// ledger is the rising-edge alarm history every scheme reports through.
type ledger struct {
	name    string
	alarmed bool
	alarms  []Alarm
}

// Name implements Detector.
func (l *ledger) Name() string { return l.name }

// Alarmed implements Detector.
func (l *ledger) Alarmed() bool { return l.alarmed }

// AlarmCount implements AlarmCounter.
func (l *ledger) AlarmCount() int { return len(l.alarms) }

// Alarms implements Detector.
func (l *ledger) Alarms() []Alarm { return cloneAlarms(l.alarms) }

// edge records the current alarm state and reports whether it is a rising
// edge.
func (l *ledger) edge(alarmed bool) bool {
	rising := alarmed && !l.alarmed
	l.alarmed = alarmed
	return rising
}

// raise appends one rising edge to the history.
func (l *ledger) raise(t float64, metric Metric, reason string) {
	l.alarms = append(l.alarms, Alarm{T: t, Detector: l.name, Metric: metric, Reason: reason})
}

// record sets the alarm state a rule decided at w; on a rising edge it
// appends the rule's evidence.
func (l *ledger) record(w *window, alarmed bool, r windowRule) {
	if l.edge(alarmed) {
		metric, reason := r.evidence(w)
		l.raise(w.t, metric, reason)
	}
}

// cloneAlarms is the defensive copy Alarms() returns. The returned slice is
// the caller's to keep, append to, or mutate — it must never alias the
// ledger, or a caller that retains it would observe later rising edges
// appearing in (or racing with) a slice it believes is a point-in-time
// snapshot. TestAlarmsNoAliasing enforces this for every registered scheme.
func cloneAlarms(alarms []Alarm) []Alarm {
	out := make([]Alarm, len(alarms))
	copy(out, alarms)
	return out
}

// checkSigma rejects a profile with a negative standard deviation.
func checkSigma(prof Profile) error {
	if prof.StdAccess < 0 || prof.StdMiss < 0 {
		return fmt.Errorf("detect: profile for %q has negative σ", prof.App)
	}
	return nil
}
