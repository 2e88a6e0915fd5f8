package main

import (
	"fmt"
	"time"

	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/randx"
)

// Cluster shape of the cloudsim workload: the repository's cluster
// benchmark scenario (every VM monitored, mixed attacker campaigns, churn,
// the full throttle→verify→migrate loop) at a size one run finishes in
// about a second.
const (
	cloudHosts   = 200
	cloudSeconds = 900.0
)

// clusterScenario is the cloudsim workload's scenario at seed, with the
// given detection scheme and mitigation policy at window fidelity.
func clusterScenario(seed uint64, seconds float64, scheme, policy string) cloudsim.Scenario {
	return cloudsim.Scenario{
		Name:                "perfbench-cluster",
		Seed:                seed,
		Hosts:               cloudHosts,
		VMsPerHost:          8,
		Seconds:             seconds,
		Fidelity:            cloudsim.FidelityWindow,
		Scheme:              scheme,
		MonitorAll:          true,
		ProfileSeconds:      600,
		Attackers:           cloudHosts/20 + 1,
		AttackKind:          cloudsim.AttackMixed,
		DwellMean:           200,
		ChurnArrivalsPerMin: float64(cloudHosts) / 10,
		ChurnLifetimeMean:   180,
		Mitigation:          cloudsim.Mitigation{Policy: policy},
	}
}

// timedRun runs one scenario, recording a span around the call.
func timedRun(sc cloudsim.Scenario, tr *tracer, name string, id int64) (cloudsim.Result, time.Duration, error) {
	sp := tr.begin(name, -1, id)
	start := time.Now()
	res, err := cloudsim.Run(sc)
	took := time.Since(start)
	tr.end(sp)
	if err != nil {
		return res, took, fmt.Errorf("cloudsim %s/%s: %w", sc.Scheme, sc.Mitigation.Policy, err)
	}
	return res, took, nil
}

// resultKey renders a Result for the determinism check. Formatting with
// %#v keeps NaN fields comparable and covers AlarmDigest.
func resultKey(res cloudsim.Result) string { return fmt.Sprintf("%#v", res) }

// cloudSetup times the cluster scenario up to its first telemetry block:
// the same scenario with a one-block horizon, which builds the cluster and
// every application's Stage-1 profile but simulates almost nothing.
func cloudSetup(seed uint64) (float64, error) {
	sc := clusterScenario(seed, 0.5, "SDS", cloudsim.PolicyThrottleMigrate)
	var took []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if _, err := cloudsim.Run(sc); err != nil {
			return 0, fmt.Errorf("cloudsim set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// cloudSeeds is how many cluster scenarios, with seeds derived from the
// workload seed, one run simulates. A single 200-host scenario's cost per
// represented sample swings by a quarter between seeds (where its few
// attackers land and migrate decides much of the run), so a run averages
// over several.
const cloudSeeds = 8

// runCloudWorkload runs the cloudSeeds scenarios in turn, repeating the
// round for the measured time; every repeat of a scenario must return the
// identical Result. Each scenario's time is its median over rounds, and
// the throughput and the per-run time are composed from those medians.
func runCloudWorkload(p params, r *report) error {
	setup, err := cloudSetup(p.seed)
	if err != nil {
		return err
	}
	rng := randx.DeriveString(p.seed, "perfbench/cloudsim")
	scenarios := make([]cloudsim.Scenario, cloudSeeds)
	for k := range scenarios {
		scenarios[k] = clusterScenario(rng.Uint64(), cloudSeconds, "SDS", cloudsim.PolicyThrottleMigrate)
	}
	first := make([]string, cloudSeeds)
	walls := make([][]float64, cloudSeeds)
	samples := make([]int64, cloudSeeds)
	start := time.Now()
	// At least two rounds, so the determinism check always has a pair.
	for round := 0; round < 2 || time.Since(start) < p.dur; round++ {
		for k, sc := range scenarios {
			res, took, err := timedRun(sc, p.tr, "cloudsim.run", int64(round*cloudSeeds+k))
			if err != nil {
				return err
			}
			failed := 0
			if key := resultKey(res); round == 0 {
				first[k] = key
			} else if key != first[k] {
				failed = 1
			}
			r.count(1, failed)
			walls[k] = append(walls[k], took.Seconds())
			samples[k] = res.SamplesRepresented
		}
	}
	var wall float64
	var total int64
	for k := range scenarios {
		wall += median(walls[k])
		total += samples[k]
	}
	rss, err := selfPeakRSS()
	if err != nil {
		return err
	}
	r.set("throughput_msamples_s", float64(total)/wall/1e6, "Msamples/s")
	r.set("op_ms_p50", wall/cloudSeeds*1e3, "ms")
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", rss, "MiB")
	r.note("cloudsim.rounds", float64(len(walls[0])), "count")
	return nil
}

// cloudLadder runs the scenario's seed three ways — no detection, SDS
// without mitigation, SDS with throttle-migrate — and reports the Result
// counts, the engine cost per block, and sample conservation with and
// without mitigation. Under scheme "none" no VM is monitored, so no
// telemetry blocks are generated: detect_ns_per_block is the cost of
// generating and observing a block.
func cloudLadder(p params, r *report) error {
	seed, tr := p.seed, p.tr
	none, tNone, err := timedRun(clusterScenario(seed, cloudSeconds, "none", cloudsim.PolicyNone), tr, "cloudsim.run_none", 0)
	if err != nil {
		return err
	}
	det, tDet, err := timedRun(clusterScenario(seed, cloudSeconds, "SDS", cloudsim.PolicyNone), tr, "cloudsim.run_detect", 0)
	if err != nil {
		return err
	}
	mit, tMit, err := timedRun(clusterScenario(seed, cloudSeconds, "SDS", cloudsim.PolicyThrottleMigrate), tr, "cloudsim.run_mitigate", 0)
	if err != nil {
		return err
	}
	r.count(3, 0)
	r.set("cloudsim.events", float64(mit.Events), "count")
	r.set("cloudsim.blocks", float64(mit.Blocks), "count")
	r.set("cloudsim.samples_represented", float64(mit.SamplesRepresented), "count")
	r.set("cloudsim.migrations", float64(mit.Migrations), "count")
	r.set("cloudsim.alarms", float64(mit.Alarms), "count")
	r.set("cloudsim.ns_per_block", float64(tMit.Nanoseconds())/float64(mit.Blocks), "ns")
	r.set("cloudsim.detect_ns_per_block", float64((tDet-tNone).Nanoseconds())/float64(det.Blocks), "ns")
	r.set("cloudsim.sample_conservation", conservation(mit), "ratio")
	r.set("cloudsim.sample_conservation_no_mitigation", conservation(det), "ratio")
	r.note("cloudsim.blocks_scheme_none", float64(none.Blocks), "count")
	return nil
}

// conservation is samples represented over the samples the benign and
// attacker VMs' full lifetimes would produce: 1 when no VM time is lost.
func conservation(res cloudsim.Result) float64 {
	return float64(res.SamplesRepresented) / (float64(res.VMs+res.Attackers) * res.Seconds / detect.DefaultConfig().TPCM)
}
