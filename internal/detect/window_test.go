package detect

import (
	"reflect"
	"strings"
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// These tests pin the ObserveMA window-level batch-observation path: feeding
// a detector the moving-average series directly must be indistinguishable
// from feeding the raw samples the averages came from. The event-driven
// cloud simulator relies on this equivalence when it generates telemetry in
// closed-form ΔW-sample blocks.

// maEquivalence streams samples into `raw` via Observe and the reference
// moving-average series into `windowed` via ObserveMA, then compares alarms.
func maEquivalence(t *testing.T, raw Detector, windowed WindowObserver, samples []pcm.Sample, cfg Config) {
	t.Helper()
	maA, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	maM, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		raw.Observe(s)
		mA, okA := maA.Push(s.Access)
		mM, okM := maM.Push(s.Miss)
		if okA != okM {
			t.Fatalf("averagers desynchronized at t=%v", s.T)
		}
		if okA {
			windowed.ObserveMA(s.T, mA, mM)
		}
	}
	wd, ok := windowed.(Detector)
	if !ok {
		t.Fatalf("window observer %T is not a Detector", windowed)
	}
	if got, want := wd.Alarms(), raw.Alarms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserveMA alarms diverge from Observe:\n got %+v\nwant %+v", got, want)
	}
	if wd.Alarmed() != raw.Alarmed() {
		t.Fatalf("final alarm state: ObserveMA %v, Observe %v", wd.Alarmed(), raw.Alarmed())
	}
}

// windowSchemes returns the registry entries with a window-level entry
// point.
func windowSchemes() []Scheme {
	var out []Scheme
	for _, s := range Schemes() {
		if s.Window {
			out = append(out, s)
		}
	}
	return out
}

// testName strips the slash from a canonical scheme name so subtests read
// SDSB, not SDS/B (a slash would nest a level).
func testName(scheme string) string { return strings.ReplaceAll(scheme, "/", "") }

// TestObserveMAEquivalence runs every window-capable scheme over an
// aperiodic (k-means) and a periodic (FaceNet) application under both
// attacks, and demands at least one alarm per case so the equivalence is
// never vacuous. SDS/P only applies to the periodic application.
func TestObserveMAEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	apps := []string{workload.KMeans, workload.FaceNet}
	kinds := []attack.Kind{attack.BusLock, attack.Cleanse}
	profs := map[string]Profile{}
	streams := map[string][]pcm.Sample{}
	for _, app := range apps {
		profs[app] = steadyProfile(t, app, 315)
		for _, kind := range kinds {
			sched := attack.Schedule{Kind: kind, Start: 120, Ramp: 8}
			streams[app+kind.String()] = genSamples(t, app, 316, 300, sched)
		}
	}
	for _, sc := range windowSchemes() {
		t.Run(testName(sc.Name), func(t *testing.T) {
			for _, app := range apps {
				prof := profs[app]
				if sc.Periodic && !prof.Periodic {
					continue
				}
				for _, kind := range kinds {
					raw, err := sc.New(Params{Profile: prof, Config: cfg})
					if err != nil {
						t.Fatal(err)
					}
					windowed, err := sc.New(Params{Profile: prof, Config: cfg})
					if err != nil {
						t.Fatal(err)
					}
					maEquivalence(t, raw, windowed.(WindowObserver), streams[app+kind.String()], cfg)
					if len(raw.Alarms()) == 0 {
						t.Fatalf("%s/%v: equivalence vacuous, no alarms raised under attack", app, kind)
					}
				}
			}
		})
	}
}

// TestObserveMAZeroAlloc pins the window-level path at zero steady-state
// allocations, like the raw Observe path: the cloud simulator calls it once
// per ΔW block for every monitored VM in the fleet.
func TestObserveMAZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	prof := steadyProfile(t, workload.FaceNet, 317)
	for _, sc := range windowSchemes() {
		t.Run(testName(sc.Name), func(t *testing.T) {
			d, err := sc.New(Params{Profile: prof, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			wo := d.(WindowObserver)
			// Warm with enough windows to fill the SDS/P ring, trigger
			// estimation rounds and finish EWMAVar's calibration, then
			// measure.
			tick := 0.0
			next := func() (float64, float64, float64) {
				tick += float64(cfg.DW) * cfg.TPCM
				return tick, 1000 + 10*float64(int(tick)%7), 100 + float64(int(tick)%5)
			}
			for i := 0; i < 400; i++ {
				wo.ObserveMA(next())
			}
			if allocs := testing.AllocsPerRun(400, func() {
				wo.ObserveMA(next())
			}); allocs != 0 {
				t.Fatalf("%s.ObserveMA: %.2f allocs/op in steady state, want 0", sc.Name, allocs)
			}
		})
	}
}
