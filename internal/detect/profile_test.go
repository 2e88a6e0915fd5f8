package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// batchProfile is the buffered Stage-1 pipeline the streaming Profiler
// replaced, kept as the reference it must reproduce bit for bit: raw
// counter arrays, then MA, EWMA and the periodicity check over whole
// series.
func batchProfile(t *testing.T, app string, samples []pcm.Sample, cfg Config) Profile {
	t.Helper()
	rawA := make([]float64, len(samples))
	rawM := make([]float64, len(samples))
	for i, s := range samples {
		rawA[i], rawM[i] = s.Access, s.Miss
	}
	maA, err := timeseries.MovingAverage(rawA, cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	maM, err := timeseries.MovingAverage(rawM, cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	ewA, err := timeseries.EWMASeries(maA, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	ewM, err := timeseries.EWMASeries(maM, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{
		App: app, Windows: len(maA),
		MeanAccess: timeseries.Mean(ewA), StdAccess: timeseries.StdDev(ewA),
		MeanMiss: timeseries.Mean(ewM), StdMiss: timeseries.StdDev(ewM),
	}
	if period, ok := signal.IsPeriodic(maA, cfg.PeriodTolerance, periodOptions(cfg, 0)); ok {
		prof.Periodic, prof.PeriodMA = true, period
	}
	return prof
}

// TestProfilerMatchesBatchPipeline: folding samples in one at a time gives
// the buffered pipeline's profile exactly, periodic or not, at any MA
// geometry.
func TestProfilerMatchesBatchPipeline(t *testing.T) {
	for _, app := range []string{workload.KMeans, workload.FaceNet} {
		samples := genSamples(t, app, 5, 600, attack.Schedule{})
		for _, w := range []int{100, 200} {
			cfg := DefaultConfig()
			cfg.W = w
			got, err := BuildProfile(app, samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := batchProfile(t, app, samples, cfg); got != want {
				t.Fatalf("%s W=%d: streamed %+v, batch %+v", app, w, got, want)
			}
		}
	}
}
