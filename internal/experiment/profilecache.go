package experiment

import (
	"sync"

	"github.com/memdos/sds/internal/detect"
)

// profileKey identifies a Stage-1 profiling pass exactly: the profile is a
// pure function of the application, the derived seed, the profiling duration
// and the profile-affecting detection parameters (the profiling RNG
// substream app+"/profile" is independent of the run substream, so runs
// sharing a derived seed share the profile bit for bit).
//
// Only the detect.Config fields that BuildProfile actually consumes enter
// the key — the sampling interval and the MA/EWMA/periodicity geometry.
// Detection-side knobs (k, H_C, H_P, the zoo's CUSUM/TimeFrag/EWMAVar
// thresholds) deliberately do not: the ROC tournament sweeps those knobs
// across dozens of configs per scheme, and keying on the full Config would
// rebuild the identical 2000-virtual-second profiling pass once per
// threshold instead of once per (app, seed).
type profileKey struct {
	app            string
	seed           uint64
	profileSeconds float64
	params         profileParams
}

// profileParams is the profile-affecting subset of detect.Config.
type profileParams struct {
	tpcm, alpha, periodTolerance float64
	w, dw                        int
}

func profileParamsOf(cfg detect.Config) profileParams {
	return profileParams{
		tpcm:            cfg.TPCM,
		alpha:           cfg.Alpha,
		periodTolerance: cfg.PeriodTolerance,
		w:               cfg.W,
		dw:              cfg.DW,
	}
}

// profileCache deduplicates Stage-1 profiling across an experiment grid.
// Accuracy evaluates up to 14 (attack × scheme) cells per (app, run) pair,
// and DetectionRun derives the profile seed from (Seed, run) alone — so
// without the cache the identical 2000-virtual-second profiling pass is
// recomputed for every cell. The cache is safe for concurrent use; each
// profile is built once (sync.Once per entry) even when workers race.
type profileCache struct {
	mu      sync.Mutex
	entries map[profileKey]*profileEntry
}

type profileEntry struct {
	once sync.Once
	prof detect.Profile
	err  error
}

func newProfileCache() *profileCache {
	return &profileCache{entries: make(map[profileKey]*profileEntry)}
}

// profile returns the Stage-1 profile for the key, building it at most once.
func (pc *profileCache) profile(c Config, app string, seed uint64) (detect.Profile, error) {
	key := profileKey{app: app, seed: seed, profileSeconds: c.ProfileSeconds, params: profileParamsOf(c.Detect)}
	pc.mu.Lock()
	e := pc.entries[key]
	if e == nil {
		e = &profileEntry{}
		pc.entries[key] = e
	}
	pc.mu.Unlock()
	e.once.Do(func() { e.prof, e.err = c.buildProfile(app, seed) })
	return e.prof, e.err
}

// cachedProfile routes through the cache when one is attached (the grid
// runners attach one for the duration of their fan-out) and falls back to a
// direct build otherwise.
func (c Config) cachedProfile(app string, seed uint64) (detect.Profile, error) {
	if c.profiles != nil {
		return c.profiles.profile(c, app, seed)
	}
	return c.buildProfile(app, seed)
}
