// Package experiment reproduces the paper's measurement study (§3) and
// evaluation (§5): every figure and table has a runner here that assembles
// the workload models, attack schedules and detectors, executes seeded
// closed-loop runs, and reports the same statistics the paper plots.
// EXPERIMENTS.md records how the outputs compare with the published values.
package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// Scheme identifies a detection scheme under evaluation.
type Scheme string

// The schemes of the paper's evaluation (§5.1), plus the detector-zoo
// baselines fielded for the ROC tournament: the canonical names of the
// detect registry.
const (
	SchemeSDS      Scheme = detect.NameSDS      // combined system
	SchemeSDSB     Scheme = detect.NameSDSB     // boundary-based alone
	SchemeSDSP     Scheme = detect.NameSDSP     // period-based alone (periodic apps only)
	SchemeKSTest   Scheme = detect.NameKSTest   // baseline of Zhang et al.
	SchemeCUSUM    Scheme = detect.NameCUSUM    // two-sided change-point over EWMA counters
	SchemeTimeFrag Scheme = detect.NameTimeFrag // fragmentation-tolerant windowed density
	SchemeEWMAVar  Scheme = detect.NameEWMAVar  // EWMA-of-variance baseline
	SchemeNone     Scheme = "none"              // no detection (overhead baseline)
)

// Config parameterizes the evaluation harness. Construct with
// DefaultConfig and override fields as needed.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed uint64
	// Runs is the number of repetitions per cell (the paper uses 20).
	Runs int
	// Parallel bounds the experiment engine's worker pool: the number of
	// telemetry streams (each feeding one or more detection runs) executed
	// concurrently by Accuracy, Sweep, ROC and Evasion, or of runs by
	// Overhead. Zero means one worker per available CPU; results are
	// bit-identical at every setting because each run is independently
	// seeded and collected in input order.
	Parallel int
	// ProfileSeconds is the Stage-1 attack-free profiling duration. It
	// must cover enough execution-phase cycles of the slowest application
	// for stable μ/σ estimates (k-means alternates phases every ~2.5 min,
	// so the default is ~33 min of virtual time — cheap in simulation).
	ProfileSeconds float64
	// StageSeconds is the length of each evaluation stage: the run lasts
	// 2·StageSeconds with the attack starting at StageSeconds (the paper
	// uses 300 s + 300 s).
	StageSeconds float64
	// EpochSeconds is the accuracy-scoring epoch length.
	EpochSeconds float64
	// RampMin and RampMax bound the attacker's randomized ramp-up time.
	RampMin, RampMax float64
	// Detect carries the SDS parameters (Table 1).
	Detect detect.Config
	// KSTest carries the baseline parameters.
	KSTest detect.KSTestConfig

	// profiles deduplicates Stage-1 profiling across grid cells that share
	// a (app, seed, parameters) profile. Attached by the grid runners
	// (Accuracy, Sweep, ROC, Evasion); nil means profiles are built per run.
	profiles *profileCache
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Runs:           20,
		ProfileSeconds: 2000,
		StageSeconds:   300,
		EpochSeconds:   30,
		RampMin:        8,
		RampMax:        18,
		Detect:         detect.DefaultConfig(),
		KSTest:         detect.DefaultKSTestConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Runs <= 0:
		return fmt.Errorf("experiment: Runs must be positive, got %d", c.Runs)
	case c.Parallel < 0:
		return fmt.Errorf("experiment: Parallel must be ≥ 0 (0 = all CPUs), got %d", c.Parallel)
	case c.ProfileSeconds <= 0 || c.StageSeconds <= 0 || c.EpochSeconds <= 0:
		return fmt.Errorf("experiment: durations must be positive: %+v", c)
	case c.RampMin < 0 || c.RampMax < c.RampMin:
		return fmt.Errorf("experiment: bad ramp range [%v, %v]", c.RampMin, c.RampMax)
	}
	if err := c.Detect.Validate(); err != nil {
		return err
	}
	return c.KSTest.Validate()
}

// SchemesFor returns the schemes evaluated for an application, in registry
// order: every registered scheme for the periodic applications (PCA,
// FaceNet). An aperiodic application skips the schemes that need a period
// and standalone SDS/B, which SDS already is for it.
func SchemesFor(app string) []Scheme {
	periodic := workload.MustAppProfile(app).Periodic
	var out []Scheme
	for _, s := range detect.Schemes() {
		if periodic || !(s.Periodic || s.Name == detect.NameSDSB) {
			out = append(out, Scheme(s.Name))
		}
	}
	return out
}

// ThrottleState adapts the KStest throttling callbacks to the telemetry
// environment: while set, co-located VMs (attacker included) are paused.
type ThrottleState struct{ paused bool }

// PauseOthers implements detect.Throttler.
func (f *ThrottleState) PauseOthers() { f.paused = true }

// ResumeOthers implements detect.Throttler.
func (f *ThrottleState) ResumeOthers() { f.paused = false }

// Paused reports whether co-located VMs are currently throttled.
func (f *ThrottleState) Paused() bool { return f.paused }

// buildProfile runs Stage 1: an attack-free profiling pass for the app.
func (c Config) buildProfile(app string, seed uint64) (detect.Profile, error) {
	appProf, err := workload.AppProfile(app)
	if err != nil {
		return detect.Profile{}, err
	}
	model, err := workload.NewModel(appProf, randx.DeriveString(seed, app+"/profile"))
	if err != nil {
		return detect.Profile{}, err
	}
	p, err := detect.NewProfiler(app, c.Detect)
	if err != nil {
		return detect.Profile{}, err
	}
	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(c.ProfileSeconds, tpcm)
	for i := 0; i < n; i++ {
		a, m := model.Sample(tpcm, workload.Env{})
		p.Observe(pcm.Sample{T: float64(i+1) * tpcm, Access: a, Miss: m})
	}
	return p.Profile()
}

// newDetector constructs the scheme's detector from a Stage-1 profile,
// resolving the scheme through the detect registry. The returned
// ThrottleState is the detector's throttling hook; it stays false for
// throttle-free schemes.
func (c Config) newDetector(scheme Scheme, prof detect.Profile) (detect.Detector, *ThrottleState, error) {
	s, ok := detect.LookupScheme(string(scheme))
	if !ok {
		return nil, nil, fmt.Errorf("experiment: unknown scheme %q (want one of %s)", scheme, detect.SchemeNames(false))
	}
	flag := &ThrottleState{}
	d, err := s.New(detect.Params{Profile: prof, Config: c.Detect, KSTest: c.KSTest, Throttler: flag})
	return d, flag, err
}

// BuildDetector runs Stage-1 profiling for the app and constructs the
// scheme's detector. The returned ThrottleState is never nil; it stays
// false for throttle-free schemes. This is the entry point interactive
// tools use (cmd/sdsmon).
func (c Config) BuildDetector(app string, scheme Scheme, seed uint64) (detect.Profile, detect.Detector, *ThrottleState, error) {
	if err := c.Validate(); err != nil {
		return detect.Profile{}, nil, nil, err
	}
	prof, err := c.buildProfile(app, seed)
	if err != nil {
		return detect.Profile{}, nil, nil, fmt.Errorf("profile %s: %w", app, err)
	}
	det, flag, err := c.newDetector(scheme, prof)
	if err != nil {
		return detect.Profile{}, nil, nil, fmt.Errorf("build %s for %s: %w", scheme, app, err)
	}
	return prof, det, flag, nil
}

// DetectionRun executes one closed-loop evaluation run: StageSeconds
// without attack, then StageSeconds under the given attack, with the
// detector observing PCM samples in real time. It returns the epoch-scored
// outcome. It is a stream of one member through the grid's detection-run
// loop.
func (c Config) DetectionRun(app string, kind attack.Kind, scheme Scheme, run int) (metrics.Outcome, error) {
	return c.detectionRun(app, kind, scheme, run, nil)
}

// detectionRun is DetectionRun with an optional schedule modifier: mod runs
// after the attack schedule is drawn with the Stage-1 profile in scope —
// the evasion grid uses it to attach adaptive strategies tuned against the
// victim's profiled period and the detector's window geometry.
func (c Config) detectionRun(app string, kind attack.Kind, scheme Scheme, run int, mod scheduleMod) (metrics.Outcome, error) {
	if err := c.Validate(); err != nil {
		return metrics.Outcome{}, err
	}
	outs, _, err := runStream(app, kind, run, []streamMember{{&c, scheme}}, mod)
	if err != nil {
		return metrics.Outcome{}, err
	}
	return outs[0], nil
}
