package cloudsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/memdos/sds/internal/workload"
)

// busyScenario is a cluster with everything moving at once: mixed attacker
// campaigns, churn, migrations — the stress shape for determinism tests.
func busyScenario(seed uint64) Scenario {
	return Scenario{
		Name:                "busy",
		Seed:                seed,
		Hosts:               6,
		VMsPerHost:          4,
		Seconds:             300,
		Apps:                []string{workload.KMeans, workload.FaceNet, workload.Scan, workload.TeraSort},
		MonitorAll:          true,
		ProfileSeconds:      400,
		Attackers:           3,
		AttackKind:          AttackMixed,
		AttackStart:         60,
		RelocateMean:        60,
		DwellMean:           90,
		ChurnArrivalsPerMin: 6,
		ChurnLifetimeMean:   120,
		Mitigation:          Mitigation{Policy: PolicyMigrate},
	}
}

// TestRunDeterministic pins byte-identical repeatability: two runs of the
// same busy scenario must produce identical JSON results, including the
// per-VM alarm digest.
func TestRunDeterministic(t *testing.T) {
	first, err := Run(busyScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(busyScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated runs diverge:\n run1 %s\n run2 %s", a, b)
	}
	if first.Events == 0 || first.Churned == 0 || first.Alarms == 0 {
		t.Fatalf("busy scenario too quiet to be a determinism witness: %+v", first)
	}
	if second.AlarmDigest != first.AlarmDigest || first.AlarmDigest == 0 {
		t.Fatalf("alarm digests diverge or empty: %d vs %d", first.AlarmDigest, second.AlarmDigest)
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed.
func TestSeedChangesOutcome(t *testing.T) {
	first, err := Run(busyScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(busyScenario(12))
	if err != nil {
		t.Fatal(err)
	}
	if first.AlarmDigest == second.AlarmDigest {
		t.Fatal("different seeds produced identical alarm digests")
	}
}

// mitigationScenario is a small cluster where one bus-locking attacker
// chases the victims and the provider runs the full closed loop.
func mitigationScenario(policy string) Scenario {
	return Scenario{
		Seed:           7,
		Hosts:          4,
		VMsPerHost:     3,
		Seconds:        600,
		Apps:           []string{workload.KMeans},
		ProfileSeconds: 400,
		Attackers:      1,
		AttackKind:     AttackBusLock,
		AttackStart:    120,
		AttackRamp:     10,
		RelocateMean:   100,
		Mitigation:     Mitigation{Policy: policy},
	}
}

// TestMitigationLoopQuarantinesAttacker runs the closed loop end to end:
// the attack must be detected, the victim migrated away from the attacker
// (a quarantine scored with a plausible time), and the mitigated run must
// recover victim slowdown and attack exposure relative to the no-response
// baseline.
func TestMitigationLoopQuarantinesAttacker(t *testing.T) {
	none, err := Run(mitigationScenario(PolicyNone))
	if err != nil {
		t.Fatal(err)
	}
	mitigated, err := Run(mitigationScenario(PolicyThrottleMigrate))
	if err != nil {
		t.Fatal(err)
	}

	if none.Alarms == 0 || none.TrueAlarms == 0 {
		t.Fatalf("attack undetected in baseline run: %+v", none)
	}
	if none.Migrations != 0 || none.QuarantineCount != 0 {
		t.Fatalf("PolicyNone must not migrate: %+v", none)
	}
	if mitigated.Migrations == 0 || mitigated.QuarantineCount == 0 {
		t.Fatalf("mitigation loop never quarantined the attacker: %+v", mitigated)
	}
	if mitigated.Confirmed == 0 {
		t.Fatalf("throttle stage never confirmed external contention: %+v", mitigated)
	}
	ttq := mitigated.TimeToQuarantine
	if ttq.Median <= 0 || ttq.Median > 120 {
		t.Fatalf("implausible time-to-quarantine %v (want within (0, 120] s of co-location)", ttq.Median)
	}
	if mitigated.VictimSlowdown >= none.VictimSlowdown {
		t.Fatalf("mitigation did not recover victim slowdown: %.4f (mitigated) vs %.4f (none)",
			mitigated.VictimSlowdown, none.VictimSlowdown)
	}
	if mitigated.VictimExposureSec >= none.VictimExposureSec {
		t.Fatalf("mitigation did not reduce attack exposure: %.2f vs %.2f",
			mitigated.VictimExposureSec, none.VictimExposureSec)
	}
}

// TestNoAttackHasNoTrueAlarms is the structural specificity check: with no
// attackers in the cluster every alarm is scored false, nothing is
// quarantined, and the residual false-alarm rate of the window fidelity
// stays in the same low range the detectors show on raw samples.
func TestNoAttackHasNoTrueAlarms(t *testing.T) {
	sc := Scenario{
		Seed:           3,
		Hosts:          2,
		VMsPerHost:     2,
		Seconds:        900,
		Apps:           []string{workload.KMeans, workload.FaceNet},
		MonitorAll:     true,
		ProfileSeconds: 400,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueAlarms != 0 || res.QuarantineCount != 0 || res.Migrations != 0 {
		t.Fatalf("attack-free run scored attack outcomes: %+v", res)
	}
	if res.Alarms > 8 {
		t.Fatalf("false-alarm flood in attack-free run: %d alarms from 4 VMs in 900 s", res.Alarms)
	}
	if res.VictimSlowdown != 0 {
		t.Fatalf("attack-free victims slowed down: %v", res.VictimSlowdown)
	}
	if res.SamplesRepresented == 0 || res.Blocks == 0 {
		t.Fatalf("window fidelity generated no telemetry: %+v", res)
	}
}

// TestWindowFidelityDetectsAttack checks the fast path end to end: the
// closed-form block telemetry must still drive the detector to a true
// alarm within a plausible delay of the attack reaching full intensity.
func TestWindowFidelityDetectsAttack(t *testing.T) {
	sc := mitigationScenario(PolicyNone)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueAlarms == 0 {
		t.Fatalf("window fidelity missed the attack: %+v", res)
	}
	if res.VictimExposureSec == 0 {
		t.Fatalf("victim exposure not accounted: %+v", res)
	}
}

// TestChurnAndCampaignsKeepRunning exercises arrivals, departures and
// attacker hops over a longer horizon and checks the bookkeeping stays
// consistent.
func TestChurnAndCampaignsKeepRunning(t *testing.T) {
	sc := busyScenario(21)
	sc.Seconds = 600
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churned == 0 {
		t.Fatalf("churn produced no arrivals: %+v", res)
	}
	if res.Events < int64(res.Churned)*2 {
		t.Fatalf("each churn VM needs at least arrive+depart events, got %d events for %d churned",
			res.Events, res.Churned)
	}
	if res.FalseMigrations > res.Migrations {
		t.Fatalf("false migrations exceed migrations: %+v", res)
	}
	if res.TrueAlarms+res.FalseAlarms != res.Alarms {
		t.Fatalf("alarm classification does not add up: %+v", res)
	}
	if res.Recoveries+res.ReAlarms > res.Migrations {
		t.Fatalf("more post-migration verdicts than migrations: %+v", res)
	}
}

// TestPlacementPolicies smoke-tests each placement policy deterministically.
func TestPlacementPolicies(t *testing.T) {
	for _, placement := range []string{PlaceLeastLoaded, PlaceRandom, PlaceFirstFit} {
		t.Run(placement, func(t *testing.T) {
			sc := busyScenario(31)
			sc.Placement = placement
			sc.Seconds = 150
			first, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if first.AlarmDigest != second.AlarmDigest || first.Events != second.Events {
				t.Fatalf("placement %q not deterministic", placement)
			}
		})
	}
}

// TestWindowSchemeAlarmDigests pins the alarm digest of a small
// window-fidelity cluster for every window-capable scheme, so each
// detector's ObserveMA path is held to recorded output. The scenario runs
// without mitigation, keeping every VM on its initial host. SDS/P runs on
// periodic applications only.
func TestWindowSchemeAlarmDigests(t *testing.T) {
	cases := []struct {
		scheme string
		apps   []string
		alarms int
		digest uint64
	}{
		{"SDS", []string{workload.KMeans, workload.FaceNet}, 11, 9345521301702688549},
		{"SDS/B", []string{workload.KMeans, workload.FaceNet}, 13, 12691628047859548080},
		{"SDS/P", []string{workload.FaceNet, workload.PCA}, 12, 150849053574829525},
		{"CUSUM", []string{workload.KMeans, workload.FaceNet}, 12, 687466816048930775},
		{"TimeFrag", []string{workload.KMeans, workload.FaceNet}, 13, 9920223926400502817},
		{"EWMAVar", []string{workload.KMeans, workload.FaceNet}, 7, 11196579609018240308},
	}
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			res, err := Run(Scenario{
				Name:           "digest-pin",
				Seed:           5,
				Hosts:          4,
				VMsPerHost:     3,
				Seconds:        300,
				Apps:           tc.apps,
				Scheme:         tc.scheme,
				MonitorAll:     true,
				ProfileSeconds: 400,
				Attackers:      3,
				AttackKind:     AttackMixed,
				AttackStart:    60,
				Mitigation:     Mitigation{Policy: PolicyNone},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Alarms != tc.alarms || res.AlarmDigest != tc.digest {
				t.Fatalf("alarms %d digest %d, want %d digest %d", res.Alarms, res.AlarmDigest, tc.alarms, tc.digest)
			}
		})
	}
}
