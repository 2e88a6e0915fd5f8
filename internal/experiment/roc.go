package experiment

import (
	"fmt"
	"sort"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/workload"
)

// The ROC tournament: every registered scheme's detection knob is swept
// across a fixed grid, each setting is evaluated over the full app × attack
// grid with an equal share of attack-free (Kind None) runs, and the pooled
// epoch counts yield one (FPR, TPR) point per setting. The per-scheme
// curves are summarized by trapezoidal AUC and by the operating point at a
// fixed false-positive budget — the provider-side question ("which scheme,
// tuned how, catches the most attacks at an FPR we can staff for?") that
// single-threshold recall/specificity tables cannot answer.

// ROCBudgetFPR is the false-positive-rate budget the tournament reports
// operating points at: the highest-TPR setting with FPR at or under 5%.
const ROCBudgetFPR = 0.05

// ROCPoint is one swept threshold setting of one scheme: the knob value,
// the epoch counts pooled over every (app, attack, run) cell at that
// setting, the resulting rates, and the detection-delay distribution over
// the attack-onset runs.
type ROCPoint struct {
	Threshold float64
	// TP, FN come from attack runs; FP, TN pool the negative epochs of
	// both attack runs (pre-onset stage) and dedicated no-attack runs.
	TP, FP, TN, FN int
	TPR, FPR       float64
	// Delay is the rising-edge detection-delay distribution (seconds);
	// DetectionRate the fraction of attack-onset runs detected.
	Delay         metrics.Distribution
	DetectionRate float64
}

// ROCCurve is one scheme's swept curve.
type ROCCurve struct {
	Scheme Scheme
	// Knob names the swept parameter (each scheme exposes one).
	Knob string
	// Points are in grid order (knob ascending).
	Points []ROCPoint
	// AUC is the trapezoidal area under the (FPR, TPR) curve with (0,0)
	// and (1,1) anchors.
	AUC float64
	// Operating indexes the point chosen at ROCBudgetFPR (highest TPR with
	// FPR ≤ budget; ties break toward lower FPR, then lower threshold).
	// -1 when no setting meets the budget.
	Operating int
}

// OperatingPoint returns the budgeted operating point, ok reporting
// whether any setting met the budget.
func (c ROCCurve) OperatingPoint() (ROCPoint, bool) {
	if c.Operating < 0 || c.Operating >= len(c.Points) {
		return ROCPoint{}, false
	}
	return c.Points[c.Operating], true
}

// rocScheme couples a scheme with its swept knob.
type rocScheme struct {
	scheme Scheme
	knob   string
	grid   []float64
	apply  func(*Config, float64) error
}

// rocKGrid spans the boundary factor k from nearly-everything-violates to
// nearly-nothing-does; Table 1's 1.125 sits inside it.
var rocKGrid = []float64{1.02, 1.05, 1.125, 1.5, 2, 3}

// applyBoundaryK moves k and re-derives H_C from Chebyshev's inequality at
// 99.9% confidence, exactly as the paper (and SweepK) couple them.
func applyBoundaryK(cfg *Config, v float64) error {
	hc, err := detect.ChebyshevHC(v, 0.999)
	if err != nil {
		return err
	}
	cfg.Detect.K = v
	cfg.Detect.HC = hc
	return nil
}

// rocSchemes returns the tournament lineup in report order.
func rocSchemes() []rocScheme {
	return []rocScheme{
		{scheme: SchemeSDSB, knob: "k", grid: rocKGrid, apply: applyBoundaryK},
		{scheme: SchemeSDSP, knob: "H_P", grid: []float64{1, 2, 3, 5, 8, 12},
			apply: func(cfg *Config, v float64) error {
				cfg.Detect.HP = int(v)
				return nil
			}},
		{scheme: SchemeSDS, knob: "k", grid: rocKGrid, apply: applyBoundaryK},
		{scheme: SchemeKSTest, knob: "alpha", grid: []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2},
			apply: func(cfg *Config, v float64) error {
				cfg.KSTest.Alpha = v
				return nil
			}},
		{scheme: SchemeCUSUM, knob: "H", grid: []float64{2, 4, 6, 8, 12, 20},
			apply: func(cfg *Config, v float64) error {
				cfg.Detect.CusumH = v
				return nil
			}},
		{scheme: SchemeTimeFrag, knob: "frac", grid: []float64{0.2, 0.3, 0.4, 0.5, 0.65, 0.8},
			apply: func(cfg *Config, v float64) error {
				cfg.Detect.FragFrac = v
				return nil
			}},
		// EWMAVar's band is k·varBandMult·σ_v; sweeping k moves the whole
		// band without touching the SDS boundary coupling.
		{scheme: SchemeEWMAVar, knob: "k", grid: rocKGrid,
			apply: func(cfg *Config, v float64) error {
				cfg.Detect.K = v
				return nil
			}},
	}
}

// rocAttackKinds are the per-cell run kinds: both attacks for the positive
// epochs plus a dedicated attack-free run contributing negatives only —
// without it, FPR at aggressive thresholds is dominated by the pre-onset
// stage of attack runs and under-weights sustained clean traffic.
var rocAttackKinds = []attack.Kind{attack.BusLock, attack.Cleanse, attack.None}

// ROC runs the tournament over the given applications. All (scheme,
// threshold, app, kind, run) cells fan out onto the parallel engine
// together, one telemetry stream per task — every throttle-free setting of
// an (app, kind, run) observes the same stream — and are pooled in input
// order, so the result is bit-identical at every Config.Parallel setting.
// Schemes that require a periodic profile (SDS/P) are evaluated on the
// periodic applications; if none of the given apps is periodic, their
// curve is omitted.
func (c Config) ROC(apps []string) ([]ROCCurve, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(apps) == 0 {
		return nil, fmt.Errorf("experiment: ROC needs at least one application")
	}
	// One Stage-1 profile per (app, run-seed): the cache key excludes
	// detection-side knobs, so every threshold setting shares the pass.
	c.profiles = newProfileCache()

	schemes := rocSchemes()
	type cellIdx struct{ si, ti int }
	var (
		jobs []detectionJob
		at   []cellIdx // (scheme, threshold) of each job
	)
	cfgs := make([][]Config, len(schemes))
	for si, s := range schemes {
		schemeApps, err := rocApps(apps, s.scheme)
		if err != nil {
			return nil, err
		}
		if len(schemeApps) == 0 {
			continue
		}
		cfgs[si] = make([]Config, len(s.grid))
		for ti, v := range s.grid {
			cfg := c
			if err := s.apply(&cfg, v); err != nil {
				return nil, fmt.Errorf("%s %s=%v: %w", s.scheme, s.knob, v, err)
			}
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%s %s=%v: %w", s.scheme, s.knob, v, err)
			}
			cfgs[si][ti] = cfg
			for _, app := range schemeApps {
				for _, kind := range rocAttackKinds {
					for run := 0; run < c.Runs; run++ {
						jobs = append(jobs, detectionJob{&cfgs[si][ti], app, kind, s.scheme, run})
						at = append(at, cellIdx{si, ti})
					}
				}
			}
		}
	}

	outs, err := runDetections(c.workers(), jobs, func(i int) string {
		j, s := jobs[i], schemes[at[i].si]
		return fmt.Sprintf("%s %s=%v %s/%v run %d", s.scheme, s.knob, s.grid[at[i].ti], j.app, j.kind, j.run)
	})
	if err != nil {
		return nil, err
	}

	// Pool epoch counts and delays per (scheme, threshold) in input order.
	type cell struct {
		tp, fp, tn, fn int
		pool           runPool
	}
	cells := make([][]cell, len(schemes))
	for si := range schemes {
		cells[si] = make([]cell, len(schemes[si].grid))
	}
	for i, ix := range at {
		out := outs[i]
		cl := &cells[ix.si][ix.ti]
		cl.tp += out.TP
		cl.fp += out.FP
		cl.tn += out.TN
		cl.fn += out.FN
		cl.pool.add(out)
	}

	var curves []ROCCurve
	for si, s := range schemes {
		if cfgs[si] == nil {
			continue
		}
		curve := ROCCurve{Scheme: s.scheme, Knob: s.knob, Operating: -1}
		for ti, v := range s.grid {
			cl := &cells[si][ti]
			curve.Points = append(curve.Points, ROCPoint{
				Threshold:     v,
				TP:            cl.tp,
				FP:            cl.fp,
				TN:            cl.tn,
				FN:            cl.fn,
				TPR:           safeRate(cl.tp, cl.tp+cl.fn),
				FPR:           safeRate(cl.fp, cl.fp+cl.tn),
				Delay:         cl.pool.delay(),
				DetectionRate: cl.pool.detectionRate(),
			})
		}
		curve.AUC = trapezoidAUC(curve.Points)
		curve.Operating = operatingIndex(curve.Points, ROCBudgetFPR)
		curves = append(curves, curve)
	}
	return curves, nil
}

// rocApps filters the app list for a scheme — dropping aperiodic apps when
// the registry says the scheme requires a periodic profile — validating
// names as a side effect.
func rocApps(apps []string, scheme Scheme) ([]string, error) {
	entry, _ := detect.LookupScheme(string(scheme))
	var out []string
	for _, app := range apps {
		prof, err := workload.AppProfile(app)
		if err != nil {
			return nil, err
		}
		if entry.Periodic && !prof.Periodic {
			continue
		}
		out = append(out, app)
	}
	return out, nil
}

// safeRate returns num/den, 0 when the denominator is empty (a curve point
// with no positive — or no negative — epochs pins to the axis rather than
// NaN).
func safeRate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// trapezoidAUC integrates the (FPR, TPR) points with (0,0) and (1,1)
// anchors. Points are sorted by FPR (ties by TPR) first: threshold grids
// are monotone in spirit but the empirical rates need not be.
func trapezoidAUC(points []ROCPoint) float64 {
	type xy struct{ x, y float64 }
	pts := make([]xy, 0, len(points)+2)
	pts = append(pts, xy{0, 0})
	for _, p := range points {
		pts = append(pts, xy{p.FPR, p.TPR})
	}
	pts = append(pts, xy{1, 1})
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].x != pts[j].x {
			return pts[i].x < pts[j].x
		}
		return pts[i].y < pts[j].y
	})
	auc := 0.0
	for i := 1; i < len(pts); i++ {
		auc += (pts[i].x - pts[i-1].x) * (pts[i].y + pts[i-1].y) / 2
	}
	return auc
}

// operatingIndex picks the highest-TPR point with FPR within the budget;
// ties break toward lower FPR, then lower threshold (earlier index).
// Returns -1 when no point qualifies.
func operatingIndex(points []ROCPoint, budget float64) int {
	best := -1
	for i, p := range points {
		if p.FPR > budget {
			continue
		}
		if best < 0 || p.TPR > points[best].TPR ||
			(p.TPR == points[best].TPR && p.FPR < points[best].FPR) {
			best = i
		}
	}
	return best
}
