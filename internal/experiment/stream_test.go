package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/workload"
)

// The grid runners share one telemetry stream among every throttle-free
// detector of an (app, attack, run). These tests pin that sharing to the
// plain reference: each grid's output equals the pooling of one
// independent DetectionRun per job, at any worker count.

// streamConfig is a small grid configuration: two runs of two one-minute
// stages.
func streamConfig() Config {
	c := fastConfig()
	c.Runs = 2
	c.StageSeconds = 60
	return c
}

// mustDetectionRun is one reference job.
func mustDetectionRun(t *testing.T, c Config, app string, kind attack.Kind, scheme Scheme, run int) metrics.Outcome {
	t.Helper()
	out, err := c.DetectionRun(app, kind, scheme, run)
	if err != nil {
		t.Fatalf("%s/%v/%s run %d: %v", app, kind, scheme, run, err)
	}
	return out
}

func TestAccuracyMatchesPerJobDetectionRuns(t *testing.T) {
	base := streamConfig()
	apps := []string{workload.KMeans, workload.FaceNet}
	var want []AccuracyCell
	for _, app := range apps {
		for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
			for _, scheme := range SchemesFor(app) {
				var pool runPool
				for run := 0; run < base.Runs; run++ {
					pool.add(mustDetectionRun(t, base, app, kind, scheme, run))
				}
				want = append(want, AccuracyCell{
					App: app, Attack: kind, Scheme: scheme,
					Recall: pool.recall(), Specificity: pool.specificity(),
					Delay: pool.delay(), DetectionRate: pool.detectionRate(),
				})
			}
		}
	}
	for _, parallel := range []int{1, 2} {
		c := base
		c.Parallel = parallel
		got, err := c.Accuracy(apps)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: Accuracy diverges from per-job runs:\n%+v\nvs\n%+v", parallel, got, want)
		}
	}
}

// sweepReference pools one SDS DetectionRun per (value, attack, run).
func sweepReference(t *testing.T, base Config, app string, values []float64, apply func(*Config, float64) error) []SweepPoint {
	t.Helper()
	var want []SweepPoint
	for _, v := range values {
		cfg := base
		if err := apply(&cfg, v); err != nil {
			t.Fatal(err)
		}
		var pool runPool
		for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
			for run := 0; run < cfg.Runs; run++ {
				pool.add(mustDetectionRun(t, cfg, app, kind, SchemeSDS, run))
			}
		}
		want = append(want, SweepPoint{Value: v, Recall: pool.recall(), Specificity: pool.specificity(), Delay: pool.delay()})
	}
	return want
}

func TestSweepKMatchesPerJobDetectionRuns(t *testing.T) {
	base := streamConfig()
	values := []float64{1.05, 1.125, 2}
	want := sweepReference(t, base, workload.FaceNet, values, applyBoundaryK)
	for _, parallel := range []int{1, 2} {
		c := base
		c.Parallel = parallel
		got, err := c.SweepK(workload.FaceNet, values)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: SweepK diverges from per-job runs:\n%+v\nvs\n%+v", parallel, got, want)
		}
	}
}

// TestSweepWMatchesPerJobDetectionRuns: W changes the Stage-1 profile, so
// the members of one shared stream carry different profiles.
func TestSweepWMatchesPerJobDetectionRuns(t *testing.T) {
	base := streamConfig()
	values := []float64{40, 100, 200}
	want := sweepReference(t, base, workload.FaceNet, values, func(cfg *Config, v float64) error {
		cfg.Detect.W = int(v)
		if cfg.Detect.DW > cfg.Detect.W {
			cfg.Detect.DW = cfg.Detect.W
		}
		return nil
	})
	for _, parallel := range []int{1, 2} {
		c := base
		c.Parallel = parallel
		got, err := c.SweepW(workload.FaceNet, values)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: SweepW diverges from per-job runs:\n%+v\nvs\n%+v", parallel, got, want)
		}
	}
}

// TestROCMatchesPerJobDetectionRuns rebuilds every curve point of a
// periodic application's tournament (all seven schemes, KStest's closed
// loop included) from per-job DetectionRun calls.
func TestROCMatchesPerJobDetectionRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced tournament grid twice; skipped in -short mode")
	}
	base := streamConfig()
	app := workload.FaceNet
	var want []string
	for _, s := range rocSchemes() {
		for _, v := range s.grid {
			cfg := base
			if err := s.apply(&cfg, v); err != nil {
				t.Fatal(err)
			}
			var tp, fp, tn, fn int
			var pool runPool
			for _, kind := range rocAttackKinds {
				for run := 0; run < cfg.Runs; run++ {
					out := mustDetectionRun(t, cfg, app, kind, s.scheme, run)
					tp, fp, tn, fn = tp+out.TP, fp+out.FP, tn+out.TN, fn+out.FN
					pool.add(out)
				}
			}
			want = append(want, fmt.Sprintf("%s %v: %+v", s.scheme, v, ROCPoint{
				Threshold: v, TP: tp, FP: fp, TN: tn, FN: fn,
				TPR: safeRate(tp, tp+fn), FPR: safeRate(fp, fp+tn),
				Delay: pool.delay(), DetectionRate: pool.detectionRate(),
			}))
		}
	}
	for _, parallel := range []int{1, 2} {
		c := base
		c.Parallel = parallel
		curves, err := c.ROC([]string{app})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var got []string
		for _, cv := range curves {
			for _, p := range cv.Points {
				got = append(got, fmt.Sprintf("%s %v: %+v", cv.Scheme, p.Threshold, p))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: ROC diverges from per-job runs:\n%v\nvs\n%v", parallel, got, want)
		}
	}
}

// streamAllocs measures one shared stream of every throttle-free scheme of
// a periodic application (its profiles cached), at the given stage length.
func streamAllocs(t *testing.T, stage float64) (mallocs, bytes uint64) {
	t.Helper()
	c := streamConfig()
	c.StageSeconds = stage
	c.profiles = newProfileCache()
	var members []streamMember
	for _, s := range SchemesFor(workload.FaceNet) {
		if s != SchemeKSTest {
			members = append(members, streamMember{&c, s})
		}
	}
	run := func() {
		if _, _, err := runStream(workload.FaceNet, attack.BusLock, 0, members, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the profiles
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSharedStreamAllocsDoNotGrowWithStage: a shared stream scores its
// members as it goes, so its heap use does not grow with the run length.
// A buffered alarm trace would add 16 B per sample per member — over 5 MB
// between these two runs; what may grow is the detectors' alarm evidence,
// one small record per rising edge.
func TestSharedStreamAllocsDoNotGrowWithStage(t *testing.T) {
	shortN, shortB := streamAllocs(t, 60)
	longN, longB := streamAllocs(t, 600)
	t.Logf("60 s stages: %d allocs, %d B; 600 s stages: %d allocs, %d B", shortN, shortB, longN, longB)
	if longB > shortB+32<<10 {
		t.Fatalf("heap use grows with the stage length: %d B at 60 s, %d B at 600 s", shortB, longB)
	}
}

// TestStreamGroupsFullAccuracyGrid pins the grouping of the full Accuracy
// grid at three runs: 324 detection runs share 120 telemetry streams —
// one per (app, attack, run) for the throttle-free schemes plus KStest's
// closed loop — and the shared streams are scheduled first.
func TestStreamGroupsFullAccuracyGrid(t *testing.T) {
	c := DefaultConfig()
	c.Runs = 3
	var jobs []detectionJob
	for _, app := range workload.AppNames() {
		for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
			for _, scheme := range SchemesFor(app) {
				for run := 0; run < c.Runs; run++ {
					jobs = append(jobs, detectionJob{&c, app, kind, scheme, run})
				}
			}
		}
	}
	groups := streamGroups(jobs)
	if len(jobs) != 324 || len(groups) != 120 {
		t.Fatalf("%d jobs in %d streams, want 324 in 120", len(jobs), len(groups))
	}
	seen := make([]bool, len(jobs))
	for gi, g := range groups {
		shared := len(g) > 1
		if gi > 0 && shared && len(groups[gi-1]) == 1 {
			t.Fatalf("shared stream %d scheduled after a single-member one", gi)
		}
		for _, i := range g {
			if seen[i] {
				t.Fatalf("job %d in two streams", i)
			}
			seen[i] = true
			if (jobs[i].scheme == SchemeKSTest) == shared {
				t.Fatalf("stream %d: %s shares=%v", gi, jobs[i].scheme, shared)
			}
			if jobs[i].key() != jobs[g[0]].key() {
				t.Fatalf("stream %d mixes stream keys", gi)
			}
		}
	}
}
