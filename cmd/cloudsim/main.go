// Command cloudsim runs the event-driven datacenter simulation: attacker
// campaigns and churn across a cluster of hosts, with the provider's closed
// mitigation loop, scored end to end. It compares mitigation policies on
// matched seeds and reports victim slowdown recovered, false-migration rate
// and time-to-quarantine alongside the engine's throughput.
//
//	cloudsim -hosts 1000 -seconds 900                    # detection only
//	cloudsim -policies none,migrate,throttle-migrate     # policy comparison
//	cloudsim -scenario cluster.json -json                # scenario file, JSON out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/experiment"
)

func main() {
	var (
		scenario  = flag.String("scenario", "", "scenario JSON file (flags below override its fields)")
		hosts     = flag.Int("hosts", 100, "number of hosts")
		vms       = flag.Int("vms", 0, "VMs per host (0 = scenario or default 8)")
		seconds   = flag.Float64("seconds", 0, "virtual run duration (0 = scenario or default 900)")
		fidelity  = flag.String("fidelity", "", "telemetry fidelity: window or exact (default window)")
		scheme    = flag.String("scheme", "", `detection scheme: none or one of `+detect.SchemeNames(false)+`, or a lowercase alias (default "SDS")`)
		attackers = flag.Int("attackers", -1, "attacker VM count (-1 = scenario or hosts/20+1)")
		strategy  = flag.String("attack-strategy", "", `evasive attacker strategy: steady, duty-cycle, period-mimic, slow-ramp, coordinated or reprofile-timed (default "steady")`)
		policies  = flag.String("policies", "none,throttle-migrate", "comma-separated mitigation policies to compare")
		runs      = flag.Int("runs", 3, "repetitions per policy")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		parallel  = flag.Int("parallel", 0, "concurrent cluster runs (0 = all CPUs); results are identical at any setting")
		jsonOut   = flag.Bool("json", false, "emit the full per-cell results as JSON instead of the table")
	)
	flag.Parse()

	base, err := loadScenario(*scenario)
	if err == nil {
		applyFlags(&base, *hosts, *vms, *seconds, *fidelity, *scheme, *attackers, *strategy)
		cfg := experiment.DefaultConfig()
		cfg.Runs = *runs
		cfg.Seed = *seed
		cfg.Parallel = *parallel
		err = run(os.Stdout, cfg, base, splitPolicies(*policies), *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

// loadScenario reads a scenario file, or returns the zero scenario for "".
func loadScenario(path string) (cloudsim.Scenario, error) {
	if path == "" {
		return cloudsim.Scenario{}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cloudsim.Scenario{}, err
	}
	return cloudsim.ParseScenario(data)
}

// applyFlags overlays command-line settings onto the scenario.
func applyFlags(sc *cloudsim.Scenario, hosts, vms int, seconds float64, fidelity, scheme string, attackers int, strategy string) {
	if sc.Hosts == 0 {
		sc.Hosts = hosts
	}
	if vms > 0 {
		sc.VMsPerHost = vms
	}
	if seconds > 0 {
		sc.Seconds = seconds
	}
	if fidelity != "" {
		sc.Fidelity = fidelity
	}
	if scheme != "" {
		sc.Scheme = scheme
	}
	if attackers >= 0 {
		sc.Attackers = attackers
	} else if sc.Attackers == 0 {
		sc.Attackers = sc.Hosts/20 + 1
	}
	if strategy != "" {
		sc.AttackStrategy = strategy
	}
	if sc.Name == "" {
		sc.Name = "cloudsim"
	}
}

func splitPolicies(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run executes the policy grid and renders the comparison.
func run(out io.Writer, cfg experiment.Config, base cloudsim.Scenario, policies []string, jsonOut bool) error {
	start := time.Now()
	cells, err := cfg.CloudGrid(base, policies)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Cells     []experiment.CloudCell          `json:"cells"`
			Summaries []experiment.CloudPolicySummary `json:"summaries"`
		}{cells, experiment.SummarizeCloud(cells)})
	}

	var samples int64
	for _, cell := range cells {
		samples += cell.Result.SamplesRepresented
	}
	tb := experiment.Table{
		Title: fmt.Sprintf("cloud mitigation policies — %d hosts × %d VMs × %.0f s, %d attackers, %d runs each",
			cells[0].Result.Hosts, cells[0].Result.VMs, cells[0].Result.Seconds, cells[0].Result.Attackers, cfg.Runs),
		Header: []string{"policy", "slowdown", "recovered %", "exposure s", "migrations", "false-mig %", "quarantines", "t-to-quarantine s"},
	}
	for _, s := range experiment.SummarizeCloud(cells) {
		ttq := "n/a"
		if s.TimeToQuarantine.N > 0 {
			ttq = fmt.Sprintf("%.1f [%.1f, %.1f]", s.TimeToQuarantine.Median, s.TimeToQuarantine.P10, s.TimeToQuarantine.P90)
		}
		tb.AddRow(
			s.Policy,
			fmt.Sprintf("%.4f", s.VictimSlowdown),
			fmt.Sprintf("%.1f", s.SlowdownRecovered*100),
			fmt.Sprintf("%.1f", s.ExposureSec),
			fmt.Sprintf("%d", s.Migrations),
			fmt.Sprintf("%.1f", s.FalseMigrationRate*100),
			fmt.Sprintf("%d", s.Quarantines),
			ttq,
		)
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%d cluster runs in %.2f s wall clock — %.1fM samples represented (%.1fM samples/s)\n",
		len(cells), elapsed.Seconds(), float64(samples)/1e6, float64(samples)/1e6/elapsed.Seconds())
	return nil
}
