// Package metrics scores detection runs the way the paper's evaluation
// (§5.2) does: recall (ability to detect a present attack), specificity
// (ability to stay quiet without one), detection delay, and the normalized
// execution-time overhead of running a detection scheme at all.
//
// Accuracy is scored over fixed-length epochs: each run has an attack-free
// stage and an attack stage; every epoch is labelled by whether the attack
// was active in it and predicted by whether the detector's alarm was active
// at any point inside it. Recall and specificity are then standard
// confusion-matrix ratios, which is what gives the paper its percentage
// values per run.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AlarmState is one (time, alarmed) observation of a detector's state.
type AlarmState struct {
	T       float64
	Alarmed bool
}

// Outcome is the scored result of one run.
type Outcome struct {
	// TP, FP, TN, FN are epoch counts.
	TP, FP, TN, FN int
	// Recall = TP / (TP+FN); 1 when there were no positive epochs.
	Recall float64
	// Specificity = TN / (TN+FP); 1 when there were no negative epochs.
	Specificity float64
	// Delay is the seconds from attack start to the first alarm *onset*
	// (rising edge) at or after it — an alarm that was already falsely
	// active when the attack began does not count as instant detection.
	// Negative when no onset occurred during the attack (either the attack
	// was missed, or a pre-existing alarm latched across it; distinguish
	// with Detected).
	Delay float64
	// Detected reports whether the alarm was active at any point while the
	// attack ran.
	Detected bool
}

// Scorer configures epoch-based scoring.
type Scorer struct {
	// RunSeconds is the total run duration.
	RunSeconds float64
	// AttackStart is when the attack begins (attack runs to the end).
	// Zero means the run has no attack (all epochs negative).
	AttackStart float64
	// EpochSeconds is the scoring epoch length (the paper's L_R-sized 30 s
	// works well; it must divide the stage lengths sensibly).
	EpochSeconds float64
}

// Validate reports configuration errors.
func (s Scorer) Validate() error {
	if s.RunSeconds <= 0 || s.EpochSeconds <= 0 {
		return fmt.Errorf("metrics: durations must be positive: %+v", s)
	}
	if s.AttackStart < 0 || s.AttackStart > s.RunSeconds {
		return fmt.Errorf("metrics: attack start %v outside run of %v s", s.AttackStart, s.RunSeconds)
	}
	if s.EpochSeconds > s.RunSeconds {
		return fmt.Errorf("metrics: epoch %v s longer than run %v s", s.EpochSeconds, s.RunSeconds)
	}
	return nil
}

// Score evaluates a time-ordered alarm-state trace. states must cover the
// run; gaps count as "not alarmed". It is the batch form of Tally.
func (s Scorer) Score(states []AlarmState) (Outcome, error) {
	var t Tally
	if err := t.Start(s); err != nil {
		return Outcome{}, err
	}
	for _, st := range states {
		t.Add(st)
	}
	return t.Outcome()
}

// Tally is the streaming form of Score. It consumes a run's alarm-state
// trace one observation at a time and keeps only what scoring needs: one
// alarm flag per epoch and the first rising edge at or after the attack
// start. Its memory is O(epochs), not O(observations), so a detection run
// scores without buffering its trace. The zero value is ready for Start.
type Tally struct {
	s         Scorer
	hasAttack bool
	epochs    []bool // alarm seen in the epoch
	n         int    // observations added
	lastT     float64
	err       error // first out-of-order observation

	prevAlarmed bool
	onset       bool // the first rising edge during the attack was seen
	detected    bool
	delay       float64
}

// Start validates s and resets t to score a new run under it.
func (t *Tally) Start(s Scorer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	*t = Tally{
		s:         s,
		hasAttack: s.AttackStart > 0 && s.AttackStart < s.RunSeconds,
		epochs:    make([]bool, int(math.Ceil(s.RunSeconds/s.EpochSeconds-1e-9))),
		delay:     -1,
	}
	return nil
}

// Add records the next observation. Observations must arrive in time
// order; the first one that does not makes Outcome fail.
func (t *Tally) Add(st AlarmState) {
	if t.err != nil {
		return
	}
	if t.n > 0 && st.T < t.lastT {
		t.err = fmt.Errorf("metrics: alarm states out of order at %d (%v after %v)", t.n, st.T, t.lastT)
		return
	}
	t.n++
	t.lastT = st.T
	if st.Alarmed {
		if e := int(st.T / t.s.EpochSeconds); e >= 0 && e < len(t.epochs) {
			t.epochs[e] = true
		}
	}
	if t.hasAttack && !t.onset {
		if st.Alarmed && st.T >= t.s.AttackStart {
			t.detected = true
			if !t.prevAlarmed {
				t.delay = st.T - t.s.AttackStart
				t.onset = true
			}
		}
		t.prevAlarmed = st.Alarmed
	}
}

// Outcome scores the observations added since Start.
func (t *Tally) Outcome() (Outcome, error) {
	if t.err != nil {
		return Outcome{}, t.err
	}
	out := Outcome{Delay: t.delay, Detected: t.detected}
	for e, alarmed := range t.epochs {
		epochEnd := float64(e+1) * t.s.EpochSeconds
		positive := t.hasAttack && epochEnd > t.s.AttackStart
		switch {
		case positive && alarmed:
			out.TP++
		case positive && !alarmed:
			out.FN++
		case !positive && alarmed:
			out.FP++
		default:
			out.TN++
		}
	}
	out.Recall = ratioOrOne(out.TP, out.TP+out.FN)
	out.Specificity = ratioOrOne(out.TN, out.TN+out.FP)
	return out, nil
}

func ratioOrOne(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// Distribution summarizes per-run values across repeated runs the way the
// paper reports them: median with 10th/90th percentile error bars.
type Distribution struct {
	N                int
	Median, P10, P90 float64
}

// Summarize builds a Distribution (zero value for empty input).
func Summarize(values []float64) Distribution {
	if len(values) == 0 {
		return Distribution{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return Distribution{
		N:      len(values),
		Median: percentile(sorted, 50),
		P10:    percentile(sorted, 10),
		P90:    percentile(sorted, 90),
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NormalizedExecTime converts achieved progress over elapsed virtual time
// into the paper's Fig. 12 metric: execution time normalized to the
// no-detection case (≥ 1; 1.02 means 2% overhead).
func NormalizedExecTime(progress, elapsed float64) (float64, error) {
	if progress <= 0 || elapsed <= 0 {
		return 0, fmt.Errorf("metrics: progress and elapsed must be positive (%v, %v)", progress, elapsed)
	}
	if progress > elapsed*(1+1e-9) {
		return 0, fmt.Errorf("metrics: progress %v exceeds elapsed %v", progress, elapsed)
	}
	return elapsed / progress, nil
}
