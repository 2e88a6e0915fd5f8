package experiment

import (
	"reflect"
	"strings"
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// fastConfig trims run counts and durations so tests stay quick while
// preserving the harness mechanics.
func fastConfig() Config {
	c := DefaultConfig()
	c.Runs = 2
	c.ProfileSeconds = 600
	c.StageSeconds = 150
	return c
}

// rng derives a test random stream from the config seed.
func (c Config) rng(label string) *randx.Rand {
	return randx.DeriveString(c.Seed, label)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Runs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	bad = DefaultConfig()
	bad.RampMax = bad.RampMin - 1
	if err := bad.Validate(); err == nil {
		t.Error("inverted ramp range accepted")
	}
}

func TestSchemesFor(t *testing.T) {
	// Non-periodic apps: the paper pair (SDS, KStest) plus the detector zoo.
	want := []Scheme{SchemeSDS, SchemeKSTest, SchemeCUSUM, SchemeTimeFrag, SchemeEWMAVar}
	if got := SchemesFor(workload.KMeans); !reflect.DeepEqual(got, want) {
		t.Fatalf("non-periodic schemes = %v, want %v", got, want)
	}
	// Periodic apps additionally run the SDS/B and SDS/P components.
	want = []Scheme{SchemeSDS, SchemeSDSB, SchemeSDSP, SchemeKSTest, SchemeCUSUM, SchemeTimeFrag, SchemeEWMAVar}
	if got := SchemesFor(workload.FaceNet); !reflect.DeepEqual(got, want) {
		t.Fatalf("periodic schemes = %v, want %v", got, want)
	}
}

// TestBuildDetectorResolvesRegistry: BuildDetector accepts every canonical
// name and wire alias of the detect registry and rejects anything else.
func TestBuildDetectorResolvesRegistry(t *testing.T) {
	c := fastConfig()
	for _, s := range detect.Schemes() {
		for _, name := range []string{s.Name, s.Alias} {
			_, det, flag, err := c.BuildDetector(workload.FaceNet, Scheme(name), 1)
			if err != nil {
				t.Fatalf("scheme %q rejected: %v", name, err)
			}
			if det.Name() != s.Name || flag == nil {
				t.Fatalf("scheme %q built %q (throttle state %v)", name, det.Name(), flag)
			}
		}
	}
	if _, _, _, err := c.BuildDetector(workload.FaceNet, "SDS/X", 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestDetectionRunSDS(t *testing.T) {
	c := fastConfig()
	out, err := c.DetectionRun(workload.KMeans, attack.BusLock, SchemeSDS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("SDS missed the attack: %+v", out)
	}
	if out.Recall < 0.5 {
		t.Fatalf("recall = %v", out.Recall)
	}
	if out.Delay < 15 {
		t.Fatalf("delay %v below SDS floor of 15 s", out.Delay)
	}
}

func TestDetectionRunDeterminism(t *testing.T) {
	c := fastConfig()
	a, err := c.DetectionRun(workload.Bayes, attack.Cleanse, SchemeSDS, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.DetectionRun(workload.Bayes, attack.Cleanse, SchemeSDS, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestDetectionRunKSTestThrottleLoop(t *testing.T) {
	c := fastConfig()
	out, err := c.DetectionRun(workload.KMeans, attack.BusLock, SchemeKSTest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Fatalf("KStest missed the attack: %+v", out)
	}
}

func TestDetectionRunSDSPRequiresPeriodicApp(t *testing.T) {
	c := fastConfig()
	if _, err := c.DetectionRun(workload.KMeans, attack.BusLock, SchemeSDSP, 0); err == nil {
		t.Fatal("SDS/P on a non-periodic app accepted")
	}
}

func TestAccuracyCells(t *testing.T) {
	c := fastConfig()
	cells, err := c.Accuracy([]string{workload.KMeans})
	if err != nil {
		t.Fatal(err)
	}
	// k-means: 2 attacks × 5 schemes (paper pair + zoo).
	if len(cells) != 10 {
		t.Fatalf("got %d cells, want 10", len(cells))
	}
	for _, cell := range cells {
		if cell.Recall.Median < 50 {
			t.Errorf("%s/%v/%s: recall median %v", cell.App, cell.Attack, cell.Scheme, cell.Recall.Median)
		}
		if cell.DetectionRate == 0 {
			t.Errorf("%s/%v/%s: nothing detected", cell.App, cell.Attack, cell.Scheme)
		}
	}
}

func TestOverheadModel(t *testing.T) {
	c := fastConfig()
	c.Runs = 10
	cells, err := c.Overhead([]string{workload.KMeans, workload.FaceNet})
	if err != nil {
		t.Fatal(err)
	}
	bySchemeApp := make(map[string]OverheadCell)
	for _, cell := range cells {
		bySchemeApp[cell.App+"/"+string(cell.Scheme)] = cell
		if cell.Normalized.Median < 1 {
			t.Errorf("%s/%s: normalized %v < 1", cell.App, cell.Scheme, cell.Normalized.Median)
		}
	}
	sds := bySchemeApp[workload.KMeans+"/SDS"].Normalized.Median
	ks := bySchemeApp[workload.KMeans+"/KStest"].Normalized.Median
	// Fig. 12 shape: SDS ≈ 1.01–1.02, KStest ≈ 1.03–1.08.
	if sds < 1.005 || sds > 1.03 {
		t.Errorf("SDS overhead median %v, want ≈1.01–1.02", sds)
	}
	if ks < 1.03 || ks > 1.09 {
		t.Errorf("KStest overhead median %v, want ≈1.03–1.08", ks)
	}
	if ks <= sds {
		t.Errorf("KStest overhead %v not above SDS %v", ks, sds)
	}
}

func TestOverheadRunNoDetection(t *testing.T) {
	c := fastConfig()
	v, err := c.OverheadRun(workload.Bayes, SchemeNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 || v > 1.01 {
		t.Fatalf("no-detection normalized time = %v, want ≈1", v)
	}
}

func TestKStestIntervalsFig1(t *testing.T) {
	c := fastConfig()
	ivs, err := c.KStestIntervals(workload.TeraSort, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 10 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	declared := 0
	for _, iv := range ivs {
		if len(iv.Checks) < 5 {
			t.Fatalf("interval %d has only %d checks", iv.Index, len(iv.Checks))
		}
		if iv.Declared {
			declared++
		}
	}
	// Fig. 1: most TeraSort intervals falsely declare an attack.
	if declared < 5 {
		t.Fatalf("only %d/10 TeraSort intervals declared; the paper reports >60%%", declared)
	}
}

func TestKStestFalseAlarmRatesMatchPaperShape(t *testing.T) {
	c := DefaultConfig()
	res, err := c.KStestFalseAlarms([]string{workload.KMeans, workload.TeraSort}, 20)
	if err != nil {
		t.Fatal(err)
	}
	rates := make(map[string]float64, len(res))
	for _, r := range res {
		rates[r.App] = r.Rate
	}
	// Shape: TeraSort ≫ k-means, as in §3.2 (60% vs 20%).
	if rates[workload.TeraSort] <= rates[workload.KMeans] {
		t.Fatalf("TeraSort rate %v not above k-means %v", rates[workload.TeraSort], rates[workload.KMeans])
	}
	if rates[workload.TeraSort] < 0.4 {
		t.Fatalf("TeraSort rate %v, want ≥ 0.4", rates[workload.TeraSort])
	}
	if rates[workload.KMeans] > 0.5 {
		t.Fatalf("k-means rate %v, want ≤ 0.5", rates[workload.KMeans])
	}
}

func TestAttackTraceObservations(t *testing.T) {
	c := fastConfig()
	// Observation 1, bus-lock half: AccessNum drops.
	tr, err := c.AttackTrace(workload.TeraSort, attack.BusLock, 120)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MeanAfter > 0.7*tr.MeanBefore {
		t.Fatalf("bus lock: mean %v → %v, want a clear drop", tr.MeanBefore, tr.MeanAfter)
	}
	// Observation 1, cleansing half: MissNum rises.
	tr, err = c.AttackTrace(workload.TeraSort, attack.Cleanse, 120)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MeanAfter < 1.5*tr.MeanBefore {
		t.Fatalf("cleansing: mean %v → %v, want a clear rise", tr.MeanBefore, tr.MeanAfter)
	}
	// Observation 2: the periodic apps' period stretches.
	tr, err = c.AttackTrace(workload.FaceNet, attack.BusLock, 120)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PeriodBefore == 0 || tr.PeriodAfter == 0 {
		t.Fatalf("FaceNet periods not detected: %d → %d", tr.PeriodBefore, tr.PeriodAfter)
	}
	if float64(tr.PeriodAfter) < 1.15*float64(tr.PeriodBefore) {
		t.Fatalf("FaceNet period %d → %d, want ≥15%% stretch", tr.PeriodBefore, tr.PeriodAfter)
	}
	if _, err := c.AttackTrace(workload.Bayes, attack.None, 120); err == nil {
		t.Fatal("trace without attack accepted")
	}
}

func TestSDSBExampleFig7(t *testing.T) {
	c := fastConfig()
	res, err := c.SDSBExample(workload.KMeans, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlarmWindow < 0 {
		t.Fatal("Fig. 7 example never alarmed")
	}
	if res.AlarmTime < res.AttackStart {
		t.Fatalf("alarm at %v before attack start %v", res.AlarmTime, res.AttackStart)
	}
	if res.Lower >= res.Upper {
		t.Fatalf("bounds inverted: [%v, %v]", res.Lower, res.Upper)
	}
	if len(res.Windows) == 0 {
		t.Fatal("no window trace recorded")
	}
}

func TestSDSPExampleFig8(t *testing.T) {
	c := fastConfig()
	res, err := c.SDSPExample(workload.FaceNet, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalPeriod < 14 || res.NormalPeriod > 20 {
		t.Fatalf("normal period %d, want ≈17 (paper Fig. 8)", res.NormalPeriod)
	}
	if res.AlarmTime < 0 {
		t.Fatal("Fig. 8 example never alarmed")
	}
	if len(res.Estimates) == 0 || len(res.MA) == 0 {
		t.Fatal("missing traces")
	}
	if _, err := c.SDSPExample(workload.Bayes, 300); err == nil {
		t.Fatal("SDS/P example on non-periodic app accepted")
	}
}

func TestSweepMechanics(t *testing.T) {
	c := fastConfig()
	c.Runs = 1
	points, err := c.SweepAlpha(workload.KMeans, []float64{0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Value != 0.2 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Recall.N == 0 || p.Specificity.N == 0 {
			t.Fatalf("empty distributions at %v", p.Value)
		}
	}
	if _, err := c.Sweep(workload.KMeans, nil, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	// An invalid parameter value must surface as an error.
	if _, err := c.SweepAlpha(workload.KMeans, []float64{2}); err == nil {
		t.Fatal("alpha=2 accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("x", 1.2345)
	tb.AddRow("longer-cell", "v,w")
	var text, csv strings.Builder
	if err := tb.Render(&text); err != nil {
		t.Fatal(err)
	}
	if err := tb.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "1.23") {
		t.Fatalf("text output:\n%s", text.String())
	}
	if !strings.Contains(csv.String(), `"v,w"`) {
		t.Fatalf("csv output:\n%s", csv.String())
	}
	if got := distCell(10, 5, 15); got != "10.0 [5.0, 15.0]" {
		t.Fatalf("distCell = %q", got)
	}
}
