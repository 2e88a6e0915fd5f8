// Command evaluate reproduces the paper's evaluation (§5.2):
//
//	evaluate -fig9     recall per application, attack and scheme
//	evaluate -fig10    specificity
//	evaluate -fig11    detection delay
//	evaluate -fig12    performance overhead (normalized execution time)
//	evaluate -table1   the SDS parameters in effect
//	evaluate -roc      threshold-sweep ROC tournament across all schemes
//	evaluate -evasion  evasive-strategy tournament: per-scheme evasion margins
//	evaluate -all      everything
//
// The accuracy figures share one experiment pass, so -fig9 -fig10 -fig11
// together cost the same as any one of them. Use -runs to trade precision
// for time (the paper uses 20 runs per cell). -json switches the ROC and
// evasion output to machine-readable JSON for plotting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/experiment"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/profiling"
	"github.com/memdos/sds/internal/workload"
)

func main() {
	var (
		fig9     = flag.Bool("fig9", false, "recall results")
		fig10    = flag.Bool("fig10", false, "specificity results")
		fig11    = flag.Bool("fig11", false, "detection delay results")
		fig12    = flag.Bool("fig12", false, "performance overhead results")
		table1   = flag.Bool("table1", false, "print the SDS parameters (Table 1)")
		ablate   = flag.Bool("ablation", false, "DFT-only vs ACF-only vs DFT-ACF period estimation (§4.2.2 motivation)")
		roc      = flag.Bool("roc", false, "threshold-sweep ROC tournament: AUC and budgeted operating point per scheme")
		evasion  = flag.Bool("evasion", false, "evasive-strategy tournament: per-scheme × per-strategy evasion margins at the ROC operating point")
		jsonOut  = flag.Bool("json", false, "emit the ROC/evasion results as JSON instead of tables (only affects -roc and -evasion)")
		all      = flag.Bool("all", false, "run the full evaluation")
		runs     = flag.Int("runs", 20, "runs per cell")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		apps     = flag.String("apps", "", "comma-separated application subset (default: all)")
		parallel = flag.Int("parallel", 0, "concurrent detection runs (0 = all CPUs); results are identical at any setting")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if !(*fig9 || *fig10 || *fig11 || *fig12 || *table1 || *ablate || *roc || *evasion || *all) {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, options{
		fig9:     *fig9 || *all,
		fig10:    *fig10 || *all,
		fig11:    *fig11 || *all,
		fig12:    *fig12 || *all,
		table1:   *table1 || *all,
		ablate:   *ablate || *all,
		roc:      *roc || *all,
		evasion:  *evasion || *all,
		jsonOut:  *jsonOut,
		runs:     *runs,
		seed:     *seed,
		apps:     *apps,
		parallel: *parallel,
	})
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// options selects what run executes and how.
type options struct {
	fig9, fig10, fig11, fig12 bool
	table1, ablate, roc       bool
	evasion                   bool
	jsonOut                   bool
	runs                      int
	seed                      uint64
	apps                      string
	parallel                  int
}

func run(out io.Writer, opt options) error {
	fig9, fig10, fig11, fig12 := opt.fig9, opt.fig10, opt.fig11, opt.fig12
	table1, ablate := opt.table1, opt.ablate

	cfg := experiment.DefaultConfig()
	cfg.Runs = opt.runs
	cfg.Seed = opt.seed
	cfg.Parallel = opt.parallel

	var apps []string
	if opt.apps != "" {
		for _, a := range strings.Split(opt.apps, ",") {
			if a = strings.TrimSpace(a); a != "" {
				apps = append(apps, a)
			}
		}
		if len(apps) == 0 {
			return fmt.Errorf("evaluate: -apps %q names no application", opt.apps)
		}
	} else {
		apps = workload.AppNames()
	}

	if table1 {
		if err := printTable1(out, cfg); err != nil {
			return err
		}
	}
	if ablate {
		if err := runAblation(out, cfg); err != nil {
			return err
		}
	}

	if fig9 || fig10 || fig11 {
		cells, err := cfg.Accuracy(apps)
		if err != nil {
			return err
		}
		if fig9 {
			if err := renderAccuracy(out, "Fig. 9 — recall (%), median [p10, p90] over runs; paper: medians 100% everywhere",
				cells, func(c experiment.AccuracyCell) string {
					return distCell(c.Recall)
				}); err != nil {
				return err
			}
		}
		if fig10 {
			if err := renderAccuracy(out, "Fig. 10 — specificity (%); paper: SDS 90–100, KStest 30–80, SDS/B 94–97, SDS/P 93–94",
				cells, func(c experiment.AccuracyCell) string {
					return distCell(c.Specificity)
				}); err != nil {
				return err
			}
		}
		if fig11 {
			if err := renderAccuracy(out, "Fig. 11 — detection delay (s); paper: SDS 15–30, KStest 20–50",
				cells, func(c experiment.AccuracyCell) string {
					// No run had an alarm onset during the attack: there is
					// no delay distribution to summarize, and printing its
					// zero value would read as instant detection.
					if c.Delay.N == 0 {
						return fmt.Sprintf("n/a (detection rate %.0f%%)", 100*c.DetectionRate)
					}
					return distCell(c.Delay)
				}); err != nil {
				return err
			}
		}
	}

	if fig12 {
		cells, err := cfg.Overhead(apps)
		if err != nil {
			return err
		}
		tb := experiment.Table{
			Title:  "Fig. 12 — normalized execution time; paper: SDS 1.01–1.02, KStest 1.03–1.08",
			Header: []string{"application", "scheme", "normalized [p10, p90]"},
		}
		for _, c := range cells {
			tb.AddRow(c.App, string(c.Scheme),
				fmt.Sprintf("%.3f [%.3f, %.3f]", c.Normalized.Median, c.Normalized.P10, c.Normalized.P90))
		}
		if err := tb.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if opt.roc {
		curves, err := cfg.ROC(apps)
		if err != nil {
			return err
		}
		if opt.jsonOut {
			if err := renderROCJSON(out, curves); err != nil {
				return err
			}
		} else if err := renderROC(out, curves); err != nil {
			return err
		}
	}

	if opt.evasion {
		curves, err := cfg.Evasion(apps)
		if err != nil {
			return err
		}
		if opt.jsonOut {
			if err := renderEvasionJSON(out, curves); err != nil {
				return err
			}
		} else if err := renderEvasion(out, curves); err != nil {
			return err
		}
	}
	return nil
}

// renderEvasion prints the per-scheme evasion-margin table (one row per
// scheme × strategy × attack vector) followed by the swept peak points.
func renderEvasion(out io.Writer, curves []experiment.EvasionCurve) error {
	summary := experiment.Table{
		Title: fmt.Sprintf("Evasion tournament — margin = largest undetected peak intensity at the FPR ≤ %.0f%% operating point",
			100*experiment.ROCBudgetFPR),
		Header: []string{"scheme", "op", "attack", "strategy", "margin", "det-rate@1.0"},
	}
	for _, c := range curves {
		op := fmt.Sprintf("%s=%g", c.Knob, c.Threshold)
		if !c.Budgeted {
			op += " (over budget: min-FPR fallback)"
		}
		for _, cell := range c.Cells {
			summary.AddRow(string(c.Scheme), op, cell.Kind, cell.Strategy,
				fmt.Sprintf("%.2f", cell.Margin),
				fmt.Sprintf("%.0f%%", 100*cell.FullRate))
		}
	}
	if err := summary.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	points := experiment.Table{
		Title:  "Evasion tournament — swept peaks (detections pooled over app × run)",
		Header: []string{"scheme", "attack", "strategy", "peak", "detected/runs"},
	}
	for _, c := range curves {
		for _, cell := range c.Cells {
			for _, p := range cell.Points {
				points.AddRow(string(c.Scheme), cell.Kind, cell.Strategy,
					fmt.Sprintf("%g", p.Peak),
					fmt.Sprintf("%d/%d", p.Detected, p.Runs))
			}
		}
	}
	if err := points.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

// renderEvasionJSON emits the evasion curves as indented JSON (stable field
// order, deterministic at any -parallel).
func renderEvasionJSON(out io.Writer, curves []experiment.EvasionCurve) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		BudgetFPR float64
		Peaks     []float64
		Curves    []experiment.EvasionCurve
	}{experiment.ROCBudgetFPR, experiment.EvasionPeaks(), curves})
}

// renderROC prints the tournament summary (AUC and budgeted operating
// point per scheme) followed by every curve's swept points.
func renderROC(out io.Writer, curves []experiment.ROCCurve) error {
	summary := experiment.Table{
		Title: fmt.Sprintf("ROC tournament — trapezoidal AUC and operating point at FPR ≤ %.0f%%",
			100*experiment.ROCBudgetFPR),
		Header: []string{"scheme", "knob", "AUC", "op knob", "op TPR", "op FPR", "op delay (s)", "op det-rate"},
	}
	for _, c := range curves {
		op, ok := c.OperatingPoint()
		if !ok {
			summary.AddRow(string(c.Scheme), c.Knob, fmt.Sprintf("%.3f", c.AUC),
				"n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		delay := "n/a"
		if op.Delay.N > 0 {
			delay = distCell(op.Delay)
		}
		summary.AddRow(string(c.Scheme), c.Knob, fmt.Sprintf("%.3f", c.AUC),
			fmt.Sprintf("%g", op.Threshold),
			fmt.Sprintf("%.3f", op.TPR), fmt.Sprintf("%.3f", op.FPR),
			delay, fmt.Sprintf("%.0f%%", 100*op.DetectionRate))
	}
	if err := summary.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	points := experiment.Table{
		Title:  "ROC tournament — swept points (epochs pooled over app × attack × run)",
		Header: []string{"scheme", "knob", "value", "TPR", "FPR", "delay (s)", "det-rate"},
	}
	for _, c := range curves {
		for _, p := range c.Points {
			delay := "n/a"
			if p.Delay.N > 0 {
				delay = distCell(p.Delay)
			}
			points.AddRow(string(c.Scheme), c.Knob, fmt.Sprintf("%g", p.Threshold),
				fmt.Sprintf("%.3f", p.TPR), fmt.Sprintf("%.3f", p.FPR),
				delay, fmt.Sprintf("%.0f%%", 100*p.DetectionRate))
		}
	}
	if err := points.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

// renderROCJSON emits the curves as indented JSON (stable field order,
// deterministic at any -parallel, ready for plotting).
func renderROCJSON(out io.Writer, curves []experiment.ROCCurve) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		BudgetFPR float64
		Curves    []experiment.ROCCurve
	}{experiment.ROCBudgetFPR, curves})
}

func distCell(d metrics.Distribution) string {
	return fmt.Sprintf("%.1f [%.1f, %.1f]", d.Median, d.P10, d.P90)
}

func renderAccuracy(out io.Writer, title string, cells []experiment.AccuracyCell, format func(experiment.AccuracyCell) string) error {
	for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
		tb := experiment.Table{
			Title:  fmt.Sprintf("%s — %s attack", title, kind),
			Header: []string{"application", "scheme", "median [p10, p90]"},
		}
		for _, c := range cells {
			if c.Attack != kind {
				continue
			}
			tb.AddRow(c.App, string(c.Scheme), format(c))
		}
		if err := tb.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func runAblation(out io.Writer, cfg experiment.Config) error {
	results, err := cfg.PeriodEstimatorAblation(500)
	if err != nil {
		return err
	}
	tb := experiment.Table{
		Title:  "§4.2.2 motivation — period-estimator ablation (500 planted-period + 500 trended-noise trials)",
		Header: []string{"method", "correct", "multiple-of-period errors", "other errors", "false detections on noise"},
	}
	for _, r := range results {
		tb.AddRow(r.Method,
			fmt.Sprintf("%.0f%%", 100*r.Correct),
			fmt.Sprintf("%.0f%%", 100*r.MultipleErrors),
			fmt.Sprintf("%.0f%%", 100*r.OtherErrors),
			fmt.Sprintf("%.0f%%", 100*r.FalseDetections))
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}

func printTable1(out io.Writer, cfg experiment.Config) error {
	d := cfg.Detect
	tb := experiment.Table{
		Title:  "Table 1 — SDS parameters",
		Header: []string{"parameter", "value"},
	}
	tb.AddRow("T_PCM", d.TPCM)
	tb.AddRow("window size W of raw data", d.W)
	tb.AddRow("sliding step size ΔW", d.DW)
	tb.AddRow("EWMA smooth factor α", d.Alpha)
	tb.AddRow("upper bound", fmt.Sprintf("μ + %gσ", d.K))
	tb.AddRow("lower bound", fmt.Sprintf("μ − %gσ", d.K))
	tb.AddRow("consecutive violation threshold H_C", d.HC)
	tb.AddRow("window size W_P in SDS/P", fmt.Sprintf("%d · period", d.WPFactor))
	tb.AddRow("sliding step size ΔW_P in SDS/P", d.DWP)
	tb.AddRow("consecutive period change threshold H_P", d.HP)
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return nil
}
