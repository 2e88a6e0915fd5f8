package detect

import (
	"strings"
	"testing"

	"github.com/memdos/sds/internal/workload"
)

// TestRegistryConformance checks each entry against the detector it
// builds: the canonical name is what the detector reports, both names
// resolve to the entry, and the capability flags match the detector's
// interfaces and profile demands.
func TestRegistryConformance(t *testing.T) {
	periodic := steadyProfile(t, workload.FaceNet, 401)
	aperiodic := steadyProfile(t, workload.KMeans, 402)
	if !periodic.Periodic || aperiodic.Periodic {
		t.Fatal("test profiles do not span periodic and aperiodic applications")
	}
	params := func(prof Profile) Params {
		return Params{Profile: prof, Config: DefaultConfig(), KSTest: DefaultKSTestConfig()}
	}
	seen := map[string]bool{}
	for _, s := range Schemes() {
		t.Run(testName(s.Name), func(t *testing.T) {
			if s.Alias != strings.ToLower(s.Alias) || strings.ContainsAny(s.Alias, "/ ") {
				t.Errorf("alias %q is not a lowercase wire token", s.Alias)
			}
			for _, name := range []string{s.Name, s.Alias} {
				if seen[name] {
					t.Errorf("name %q registered twice", name)
				}
				seen[name] = true
				got, ok := LookupScheme(name)
				if !ok || got.Name != s.Name {
					t.Errorf("LookupScheme(%q) = %q, %v; want %q", name, got.Name, ok, s.Name)
				}
			}
			d, err := s.New(params(periodic))
			if err != nil {
				t.Fatal(err)
			}
			if d.Name() != s.Name {
				t.Errorf("detector reports name %q, registry says %q", d.Name(), s.Name)
			}
			if _, ok := d.(WindowObserver); ok != s.Window {
				t.Errorf("implements WindowObserver = %v, Window capability = %v", ok, s.Window)
			}
			if _, ok := d.(AlarmCounter); !ok {
				t.Error("detector does not implement AlarmCounter")
			}
			if s.Throttled {
				if _, err := s.New(Params{KSTest: DefaultKSTestConfig()}); err != nil {
					t.Errorf("throttled scheme needs a Stage-1 profile: %v", err)
				}
			}
			if _, err := s.New(params(aperiodic)); (err != nil) != s.Periodic {
				t.Errorf("aperiodic profile: err = %v, Periodic capability = %v", err, s.Periodic)
			}
		})
	}
	if _, ok := LookupScheme("SDS/X"); ok {
		t.Error("unknown scheme resolved")
	}
}
