package cloudsim

import (
	"strings"
	"testing"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/workload"
)

func TestParseScenario(t *testing.T) {
	data := []byte(`{
		"name": "paper-grid",
		"seed": 42,
		"hosts": 100,
		"vms_per_host": 8,
		"seconds": 900,
		"attackers": 5,
		"attack_kind": "bus-locking",
		"placement": "random",
		"churn_arrivals_per_min": 4,
		"mitigation": {"policy": "throttle-migrate", "reaction_delay": 2}
	}`)
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Hosts != 100 || sc.Attackers != 5 || sc.Mitigation.Policy != PolicyThrottleMigrate {
		t.Fatalf("fields lost in parse: %+v", sc)
	}
	d := sc.withDefaults()
	if err := d.validate(); err != nil {
		t.Fatalf("parsed scenario invalid after defaults: %v", err)
	}
	if d.Fidelity != FidelityWindow || d.Scheme != "SDS" || d.Mitigation.ThrottleSeconds != 10 {
		t.Fatalf("defaults not applied: %+v", d)
	}
	if sc.Mitigation.ReactionDelay != 2 {
		t.Fatalf("explicit reaction delay overwritten: %+v", sc.Mitigation)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	_, err := ParseScenario([]byte(`{"hosts": 10, "vms_per_hosts": 8}`))
	if err == nil || !strings.Contains(err.Error(), "vms_per_hosts") {
		t.Fatalf("typo field not rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no hosts", func(s *Scenario) { s.Hosts = 0 }, "Hosts"},
		{"bad fidelity", func(s *Scenario) { s.Fidelity = "approximate" }, "fidelity"},
		{"bad scheme", func(s *Scenario) { s.Scheme = "SDS/X" }, "scheme"},
		{"bad placement", func(s *Scenario) { s.Placement = "round-robin" }, "placement"},
		{"bad policy", func(s *Scenario) { s.Mitigation.Policy = "reboot" }, "mitigation policy"},
		{"bad attack kind", func(s *Scenario) { s.AttackKind = "rowhammer" }, "attack kind"},
		{"bad app", func(s *Scenario) { s.Apps = []string{"doom"} }, "doom"},
		{"kstest needs exact", func(s *Scenario) { s.Scheme = "KStest" }, "fidelity"},
		{"periodic scheme needs periodic apps", func(s *Scenario) {
			s.Seconds = 120
			s.Scheme = "SDS/P"
		}, "bayes"},
		{"policy needs scheme", func(s *Scenario) {
			s.Scheme = "none"
			s.Mitigation.Policy = PolicyMigrate
		}, "detection scheme"},
		{"window needs aligned horizon", func(s *Scenario) { s.Seconds = 900.3 }, "divisible"},
		{"bad ramp range", func(s *Scenario) { s.RampMin, s.RampMax = 18, 8 }, "ramp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Hosts: 4}
			tc.mut(&sc)
			err := sc.withDefaults().validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
			if _, runErr := Run(sc); runErr == nil {
				t.Fatal("Run accepted the invalid scenario")
			}
		})
	}
}

// TestValidateSchemesFromRegistry: every canonical name and wire alias of
// the detect registry validates (at exact fidelity for raw-sample schemes,
// on periodic applications for SDS/P) and normalizes to the canonical
// name; anything else is rejected.
func TestValidateSchemesFromRegistry(t *testing.T) {
	for _, s := range detect.Schemes() {
		for _, name := range []string{s.Name, s.Alias} {
			sc := Scenario{Hosts: 4, Scheme: name}
			if !s.Window {
				sc.Fidelity = FidelityExact
			}
			if s.Periodic {
				sc.Apps = []string{workload.FaceNet, workload.PCA}
			}
			d := sc.withDefaults()
			if err := d.validate(); err != nil {
				t.Fatalf("scheme %q rejected: %v", name, err)
			}
			if d.Scheme != s.Name {
				t.Fatalf("scheme %q normalized to %q, want %q", name, d.Scheme, s.Name)
			}
		}
	}
	if err := (Scenario{Hosts: 4, Scheme: "none"}).withDefaults().validate(); err != nil {
		t.Fatalf("scheme none rejected: %v", err)
	}
	if err := (Scenario{Hosts: 4, Scheme: "sds/x"}).withDefaults().validate(); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunWithSchemeAlias runs a small cluster under a wire alias; the
// result reports the canonical name.
func TestRunWithSchemeAlias(t *testing.T) {
	res, err := Run(Scenario{Hosts: 2, VMsPerHost: 2, Seconds: 60, ProfileSeconds: 300, Scheme: "sdsb"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != detect.NameSDSB {
		t.Fatalf("result scheme %q, want %q", res.Scheme, detect.NameSDSB)
	}
}
