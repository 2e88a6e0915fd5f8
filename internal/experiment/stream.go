package experiment

import (
	"fmt"
	"sort"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// The detection-run loop. A run's telemetry is a pure function of its
// stream key: the application, the attack kind, the run index and the
// stream-affecting config (Seed, Detect.TPCM, StageSeconds, RampMin and
// RampMax). The scheme and the detection-side knobs never enter, so every
// throttle-free cell of one (app, attack, run) observes the same sample
// path. The grid runners therefore group their jobs by stream key and
// generate each stream once, feeding every member detector in lockstep.
// A throttled scheme (KStest) pauses the co-located VMs, so its telemetry
// depends on its own decisions: it keeps a closed-loop stream of its own.

// streamKey identifies a telemetry stream.
type streamKey struct {
	app              string
	kind             attack.Kind
	run              int
	seed             uint64
	tpcm, stage      float64
	rampMin, rampMax float64
}

// detectionJob is one detection run of a grid: a scheme under one config
// observing one (app, attack, run) stream.
type detectionJob struct {
	cfg    *Config
	app    string
	kind   attack.Kind
	scheme Scheme
	run    int
}

func (j detectionJob) key() streamKey {
	c := j.cfg
	return streamKey{
		app: j.app, kind: j.kind, run: j.run,
		seed: c.Seed, tpcm: c.Detect.TPCM, stage: c.StageSeconds,
		rampMin: c.RampMin, rampMax: c.RampMax,
	}
}

// streamGroups partitions jobs (by index) into the streams the grid
// generates. Throttle-free jobs with equal stream keys share a group; a
// job whose registry entry is Throttled is a group of one. Multi-member
// groups come first, so the pool starts the long tasks before the short
// ones; within each class groups keep the order of their first job.
func streamGroups(jobs []detectionJob) [][]int {
	var groups [][]int
	byKey := make(map[streamKey]int)
	for i, j := range jobs {
		if s, ok := detect.LookupScheme(string(j.scheme)); ok && s.Throttled {
			groups = append(groups, []int{i})
			continue
		}
		k := j.key()
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	sort.SliceStable(groups, func(a, b int) bool { return len(groups[a]) > 1 && len(groups[b]) == 1 })
	return groups
}

// runDetections executes every job on the parallel engine, one stream
// group per task, and returns the outcomes in job order — the outcomes of
// one DetectionRun per job, bit for bit, at any worker count. label names
// the job of an index in errors.
func runDetections(workers int, jobs []detectionJob, label func(int) string) ([]metrics.Outcome, error) {
	groups := streamGroups(jobs)
	outs := make([]metrics.Outcome, len(jobs))
	_, err := parallelMap(workers, len(groups), func(gi int) (struct{}, error) {
		g := groups[gi]
		members := make([]streamMember, len(g))
		for k, i := range g {
			members[k] = streamMember{jobs[i].cfg, jobs[i].scheme}
		}
		first := jobs[g[0]]
		res, failed, err := runStream(first.app, first.kind, first.run, members, nil)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", label(g[failed]), err)
		}
		for k, i := range g {
			outs[i] = res[k]
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// streamMember is one detector a stream feeds: a scheme under its job's
// config.
type streamMember struct {
	cfg    *Config
	scheme Scheme
}

// scheduleMod rewrites a run's drawn attack schedule with the Stage-1
// profile in scope. It consumes no run randomness, so a modified run
// shares the unmodified run's sample path up to the attack envelope.
type scheduleMod func(prof detect.Profile, sched attack.Schedule) (attack.Schedule, error)

// runStream is the one detection-run loop: StageSeconds without attack,
// then StageSeconds under kind, with every member's detector observing
// each PCM sample in real time. The stream is generated once and every
// sample goes to each member in lockstep: Observe, Alarmed, then the
// member's streaming scorer. Each member profiles and builds its detector
// under its own config; the stream is drawn from the first member's
// config, which the members share on every stream-key field. The first
// member's ThrottleState closes the loop, so a throttled scheme must be
// its stream's only member (streamGroups sees to that). mod, when set,
// applies with the first member's profile. The outcomes come back in
// member order; on error, failed indexes the member at fault.
func runStream(app string, kind attack.Kind, run int, members []streamMember, mod scheduleMod) (outs []metrics.Outcome, failed int, err error) {
	c := members[0].cfg
	appProf, err := workload.AppProfile(app)
	if err != nil {
		return nil, 0, err
	}
	seed := randx.Derive(c.Seed, uint64(run)).Uint64()
	total := 2 * c.StageSeconds
	dets := make([]detect.Detector, len(members))
	tallies := make([]metrics.Tally, len(members))
	var (
		flag *ThrottleState
		prof detect.Profile
	)
	for k, m := range members {
		p, err := m.cfg.cachedProfile(app, seed)
		if err != nil {
			return nil, k, fmt.Errorf("profile %s: %w", app, err)
		}
		det, fl, err := m.cfg.newDetector(m.scheme, p)
		if err != nil {
			return nil, k, fmt.Errorf("build %s for %s: %w", m.scheme, app, err)
		}
		scorer := metrics.Scorer{RunSeconds: total, AttackStart: m.cfg.StageSeconds, EpochSeconds: m.cfg.EpochSeconds}
		if kind == attack.None {
			scorer.AttackStart = 0
		}
		if err := tallies[k].Start(scorer); err != nil {
			return nil, k, err
		}
		dets[k] = det
		if k == 0 {
			flag, prof = fl, p
		}
	}

	runRng := randx.DeriveString(seed, app+"/run")
	model, err := workload.NewModel(appProf, runRng)
	if err != nil {
		return nil, 0, err
	}
	sched := attack.Schedule{
		Kind:  kind,
		Start: c.StageSeconds,
		Ramp:  runRng.Uniform(c.RampMin, c.RampMax),
	}
	if mod != nil {
		// By-value in and out: handing mod a *Schedule would make sched
		// escape to the heap on every detection run, modified or not.
		if sched, err = mod(prof, sched); err != nil {
			return nil, 0, err
		}
	}

	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(total, tpcm)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, sched.Env(now, flag.paused))
		s := pcm.Sample{T: now, Access: a, Miss: m}
		for k, det := range dets {
			det.Observe(s)
			tallies[k].Add(metrics.AlarmState{T: now, Alarmed: det.Alarmed()})
		}
	}

	outs = make([]metrics.Outcome, len(members))
	for k := range tallies {
		if outs[k], err = tallies[k].Outcome(); err != nil {
			return nil, k, err
		}
	}
	return outs, 0, nil
}
