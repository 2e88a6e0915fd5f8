package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchScore is the batch scorer Tally replaced, kept verbatim as the
// reference the streaming form must reproduce.
func batchScore(s Scorer, states []AlarmState) (Outcome, error) {
	if err := s.Validate(); err != nil {
		return Outcome{}, err
	}
	for i := 1; i < len(states); i++ {
		if states[i].T < states[i-1].T {
			return Outcome{}, fmt.Errorf("metrics: alarm states out of order at %d (%v after %v)",
				i, states[i].T, states[i-1].T)
		}
	}

	nEpochs := int(math.Ceil(s.RunSeconds/s.EpochSeconds - 1e-9))
	alarmInEpoch := make([]bool, nEpochs)
	for _, st := range states {
		if !st.Alarmed {
			continue
		}
		e := int(st.T / s.EpochSeconds)
		if e >= 0 && e < nEpochs {
			alarmInEpoch[e] = true
		}
	}

	hasAttack := s.AttackStart > 0 && s.AttackStart < s.RunSeconds
	var out Outcome
	out.Delay = -1
	for e := 0; e < nEpochs; e++ {
		epochEnd := float64(e+1) * s.EpochSeconds
		positive := hasAttack && epochEnd > s.AttackStart
		switch {
		case positive && alarmInEpoch[e]:
			out.TP++
		case positive && !alarmInEpoch[e]:
			out.FN++
		case !positive && alarmInEpoch[e]:
			out.FP++
		default:
			out.TN++
		}
	}
	out.Recall = ratioOrOne(out.TP, out.TP+out.FN)
	out.Specificity = ratioOrOne(out.TN, out.TN+out.FP)

	if hasAttack {
		prevAlarmed := false
		for i, st := range states {
			if st.Alarmed && st.T >= s.AttackStart {
				out.Detected = true
				rising := i == 0 || !prevAlarmed
				if rising {
					out.Delay = st.T - s.AttackStart
					break
				}
			}
			prevAlarmed = st.Alarmed
		}
	}
	return out, nil
}

// randomTrace draws a run's alarm trace on a grid of step-second ticks, so
// many observations fall exactly on epoch boundaries, with alarms in
// bursts (some of them latched across the attack start) and, when
// disorder is set, one pair of observations swapped.
func randomTrace(rng *rand.Rand, run, step float64, disorder bool) []AlarmState {
	var tr []AlarmState
	alarmed := rng.Intn(2) == 0
	for tm := step * float64(rng.Intn(2)); tm <= run; tm += step {
		if rng.Intn(8) == 0 {
			alarmed = !alarmed
		}
		if rng.Intn(10) > 0 { // leave gaps
			tr = append(tr, AlarmState{T: tm, Alarmed: alarmed})
		}
	}
	if disorder && len(tr) > 2 {
		i := 1 + rng.Intn(len(tr)-1)
		tr[i-1], tr[i] = tr[i], tr[i-1]
	}
	return tr
}

// TestTallyMatchesBatchScore: streaming a trace through a reused Tally
// scores exactly as the batch reference does, errors included.
func TestTallyMatchesBatchScore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tally Tally
	for iter := 0; iter < 4000; iter++ {
		epoch := float64(1 + rng.Intn(6))
		s := Scorer{RunSeconds: epoch * float64(2+rng.Intn(12)), EpochSeconds: epoch}
		switch rng.Intn(4) {
		case 0: // no attack
		case 1: // on an epoch boundary
			s.AttackStart = epoch * float64(rng.Intn(int(s.RunSeconds/epoch)+1))
		case 2: // on a tick
			s.AttackStart = 0.5 * float64(rng.Intn(int(2*s.RunSeconds)+1))
		default:
			s.AttackStart = rng.Float64() * s.RunSeconds
		}
		tr := randomTrace(rng, s.RunSeconds, 0.5*float64(1+rng.Intn(4)), rng.Intn(8) == 0)

		want, wantErr := batchScore(s, tr)
		if err := tally.Start(s); err != nil {
			t.Fatalf("scorer %+v: %v", s, err)
		}
		for _, st := range tr {
			tally.Add(st)
		}
		got, err := tally.Outcome()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("scorer %+v, trace %v: error %v, want %v", s, tr, err, wantErr)
		}
		if got != want {
			t.Fatalf("scorer %+v, trace %v:\nstreamed %+v\nbatch    %+v", s, tr, got, want)
		}
		if scored, _ := s.Score(tr); scored != want {
			t.Fatalf("scorer %+v: Score %+v, want %+v", s, scored, want)
		}
	}
}

// TestTallyEdgeCases pins the cases the random traces only sample.
func TestTallyEdgeCases(t *testing.T) {
	s := Scorer{RunSeconds: 90, AttackStart: 30, EpochSeconds: 30}
	cases := map[string]struct {
		s  Scorer
		tr []AlarmState
	}{
		"latched across attack start": {s, states(
			AlarmState{T: 20, Alarmed: true}, AlarmState{T: 30, Alarmed: true}, AlarmState{T: 60, Alarmed: true})},
		"alarms on exact epoch boundaries": {s, states(
			AlarmState{T: 0, Alarmed: true}, AlarmState{T: 30, Alarmed: false},
			AlarmState{T: 60, Alarmed: true}, AlarmState{T: 90, Alarmed: true})},
		"no attack": {Scorer{RunSeconds: 90, EpochSeconds: 30}, states(
			AlarmState{T: 10, Alarmed: true}, AlarmState{T: 50, Alarmed: false})},
		"out of order": {s, states(
			AlarmState{T: 10}, AlarmState{T: 40, Alarmed: true}, AlarmState{T: 35}, AlarmState{T: 5})},
		"empty": {s, nil},
	}
	for name, c := range cases {
		want, wantErr := batchScore(c.s, c.tr)
		got, err := c.s.Score(c.tr)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: %+v, %v; want %+v, %v", name, got, err, want, wantErr)
		}
	}
	if _, err := s.Score(states(AlarmState{T: 10}, AlarmState{T: 40}, AlarmState{T: 35})); err == nil ||
		err.Error() != "metrics: alarm states out of order at 2 (35 after 40)" {
		t.Fatalf("out-of-order error = %v", err)
	}
}

// TestTallyAddAllocatesNothing: scoring a sample costs no allocation.
func TestTallyAddAllocatesNothing(t *testing.T) {
	s := Scorer{RunSeconds: 600, AttackStart: 300, EpochSeconds: 30}
	var tally Tally
	if err := tally.Start(s); err != nil {
		t.Fatal(err)
	}
	tm := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			tm += 0.5
			tally.Add(AlarmState{T: tm, Alarmed: tm > 310})
		}
		_, _ = tally.Outcome()
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %v times per 1000 samples", allocs)
	}
	if _, err := tally.Outcome(); err != nil {
		t.Fatal(err)
	}
}
