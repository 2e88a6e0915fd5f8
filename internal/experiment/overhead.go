package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// OverheadCell is one bar of the paper's Fig. 12: the normalized execution
// time of an application on a co-located VM while the hypervisor runs a
// detection scheme (1.00 = no overhead).
type OverheadCell struct {
	App        string
	Scheme     Scheme
	Normalized metrics.Distribution
}

// Overhead model constants. The paper attributes the baseline's 3–8%
// overhead to execution throttling (co-located VMs are paused W_R seconds
// out of every L_R) plus the cost of high-frequency sampling and repeated
// KS computations, and SDS's 1–2% to lightweight PCM sampling and O(1)
// statistics. The same decomposition is modelled here; the throttling term
// is exact (W_R/L_R of wall time) and the computation taxes carry
// run-to-run jitter for the error bars.
const (
	pcmSamplingTax  = 0.008 // PCM tool at 100 Hz
	sdsbAnalysisTax = 0.004 // bounds check per window
	sdspAnalysisTax = 0.006 // DFT–ACF every ΔW_P windows
	ksComputeTaxMin = 0.005 // KS tests + sample management
	ksComputeTaxMax = 0.030
	overheadJitter  = 0.003
)

// OverheadRun models one 2·StageSeconds run of an application on a
// co-located VM under the given detection scheme and returns its
// normalized execution time.
func (c Config) OverheadRun(app string, scheme Scheme, run int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	prof, err := workload.AppProfile(app)
	if err != nil {
		return 0, err
	}
	rng := randx.DeriveString(randx.Derive(c.Seed, uint64(run)).Uint64(), app+"/overhead/"+string(scheme))

	tax := 0.0
	switch scheme {
	case SchemeNone:
		// no detection, no overhead
	case SchemeSDSB:
		tax = pcmSamplingTax + sdsbAnalysisTax
	case SchemeCUSUM, SchemeTimeFrag, SchemeEWMAVar:
		// The zoo detectors keep O(1) state per window (four CUSUM
		// accumulators, a boolean ring, one variance EWMA) on the same
		// PCM sampling path, so they price like the bounds check.
		tax = pcmSamplingTax + sdsbAnalysisTax
	case SchemeSDSP:
		tax = pcmSamplingTax + sdspAnalysisTax
	case SchemeSDS:
		tax = pcmSamplingTax + sdsbAnalysisTax
		if prof.Periodic {
			tax += sdspAnalysisTax
		}
	case SchemeKSTest:
		// Throttling stalls co-located VMs for W_R out of every L_R
		// seconds, on top of the sampling and KS-computation cost.
		tax = c.KSTest.WR/c.KSTest.LR + pcmSamplingTax + rng.Uniform(ksComputeTaxMin, ksComputeTaxMax)
	default:
		return 0, fmt.Errorf("experiment: unknown scheme %q", scheme)
	}
	tax *= prof.OverheadSensitivity
	tax += rng.Normal(0, overheadJitter)
	if tax < 0 {
		tax = 0
	}
	if tax > 0.5 {
		return 0, fmt.Errorf("experiment: implausible overhead %v for %s/%s", tax, app, scheme)
	}

	elapsed := 2 * c.StageSeconds
	progress := elapsed * (1 - tax)
	return metrics.NormalizedExecTime(progress, elapsed)
}

// Overhead reproduces Fig. 12: normalized execution times for every
// application under every applicable detection scheme, without any attack,
// fanned out on the parallel engine; see Config.Parallel.
func (c Config) Overhead(apps []string) ([]OverheadCell, error) {
	if len(apps) == 0 {
		apps = workload.AppNames()
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := validateApps(apps); err != nil {
		return nil, err
	}
	type cellKey struct {
		app    string
		scheme Scheme
	}
	var keys []cellKey
	for _, app := range apps {
		for _, scheme := range SchemesFor(app) {
			keys = append(keys, cellKey{app, scheme})
		}
	}
	values, err := parallelMap(c.workers(), len(keys)*c.Runs, func(i int) (float64, error) {
		k := keys[i/c.Runs]
		return c.OverheadRun(k.app, k.scheme, i%c.Runs)
	})
	if err != nil {
		return nil, err
	}
	cells := make([]OverheadCell, 0, len(keys))
	for i, k := range keys {
		cells = append(cells, OverheadCell{
			App:        k.app,
			Scheme:     k.scheme,
			Normalized: metrics.Summarize(values[i*c.Runs : (i+1)*c.Runs]),
		})
	}
	return cells, nil
}
