package main

import (
	"strings"
	"testing"

	"github.com/memdos/sds/internal/golden"
)

// TestRunMatchesGolden pins the full fixed-seed CLI output byte for byte
// against the committed conformance fixture
// (testdata/golden/evaluate_small.txt, equivalent to:
//
//	evaluate -fig9 -fig10 -fig11 -fig12 -table1 -ablation \
//	  -runs 2 -apps kmeans,facenet -seed 1 -parallel 0
//
// ). Any numerical drift in the detection pipeline — FFT tables, ACF
// evaluation order, estimator reuse, profile caching — shows up here as a
// line diff. Intentional changes regenerate with -update (see make goldens).
func TestRunMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced evaluation grid; skipped in -short mode")
	}
	var got strings.Builder
	err := run(&got, options{
		fig9: true, fig10: true, fig11: true, fig12: true,
		table1: true, ablate: true,
		runs: 2, seed: 1, apps: "kmeans,facenet", parallel: 0,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.AssertString(t, "testdata/golden/evaluate_small.txt", got.String())
}

// TestROCMatchesGolden pins the ROC tournament tables the same way
// (equivalent to: evaluate -roc -runs 2 -apps kmeans,facenet -seed 1).
// The tournament promises bit-identical output at any -parallel setting;
// the fixture is the cross-machine half of that promise, and any change to
// the threshold grids, the pooling accounting or the AUC integration
// surfaces here as a line diff.
func TestROCMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced tournament grid; skipped in -short mode")
	}
	var got strings.Builder
	err := run(&got, options{
		roc:  true,
		runs: 2, seed: 1, apps: "kmeans,facenet", parallel: 0,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.AssertString(t, "testdata/golden/roc_small.txt", got.String())
}

// TestROCJSONMatchesGolden pins the -json encoding of the same tournament
// (field order, indentation, numeric formatting) for downstream plotting
// scripts.
func TestROCJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced tournament grid; skipped in -short mode")
	}
	var got strings.Builder
	err := run(&got, options{
		roc: true, jsonOut: true,
		runs: 2, seed: 1, apps: "kmeans,facenet", parallel: 0,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.AssertString(t, "testdata/golden/roc_small.json", got.String())
}

// TestEvasionMatchesGolden pins the evasion-margin grid (equivalent to:
// evaluate -evasion -runs 2 -apps kmeans,facenet -seed 1). The grid reuses
// the ROC tournament to pick each scheme's FPR-budgeted operating point and
// then sweeps every evasive strategy over the peak-intensity ladder, so a
// drift in either the tournament or the strategy envelopes shows up here as
// a margin or detection-count diff.
func TestEvasionMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced evasion grid; skipped in -short mode")
	}
	var got strings.Builder
	err := run(&got, options{
		evasion: true,
		runs:    2, seed: 1, apps: "kmeans,facenet", parallel: 0,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.AssertString(t, "testdata/golden/evasion_small.txt", got.String())
}

// TestEvasionJSONMatchesGolden pins the -json encoding of the same grid.
// scripts/smoke_evasion.sh additionally asserts this encoding is
// byte-identical at -parallel 1 and -parallel 8.
func TestEvasionJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced evasion grid; skipped in -short mode")
	}
	var got strings.Builder
	err := run(&got, options{
		evasion: true, jsonOut: true,
		runs: 2, seed: 1, apps: "kmeans,facenet", parallel: 0,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden.AssertString(t, "testdata/golden/evasion_small.json", got.String())
}

// TestRunSkipsEmptyAppEntries: a stray comma in -apps is not an
// application name.
func TestRunSkipsEmptyAppEntries(t *testing.T) {
	for _, apps := range []string{"kmeans,", "kmeans,,pca", ",pca"} {
		var got strings.Builder
		if err := run(&got, options{fig12: true, runs: 1, seed: 1, apps: apps}); err != nil {
			t.Fatalf("-apps %q: %v", apps, err)
		}
		for _, app := range strings.Split(apps, ",") {
			if app != "" && !strings.Contains(got.String(), app) {
				t.Fatalf("-apps %q: no rows for %s:\n%s", apps, app, got.String())
			}
		}
	}
}

// TestRunRejectsBadGrids: an unknown application or a zero run count is an
// error from every grid, not a panic or an empty table.
func TestRunRejectsBadGrids(t *testing.T) {
	cases := map[string]options{
		"fig9 unknown app":  {fig9: true, runs: 1, seed: 1, apps: "bogus"},
		"fig12 unknown app": {fig12: true, runs: 1, seed: 1, apps: "bogus"},
		"roc unknown app":   {roc: true, runs: 1, seed: 1, apps: "bogus"},
		"fig9 zero runs":    {fig9: true, runs: 0, seed: 1, apps: "kmeans"},
	}
	for name, opt := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := run(&strings.Builder{}, opt); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}
