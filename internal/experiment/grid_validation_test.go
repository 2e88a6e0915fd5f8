package experiment

import (
	"fmt"
	"testing"

	"github.com/memdos/sds/internal/workload"
)

// gridErr calls a grid runner and turns a panic into a test failure, so a
// runner that panics on bad input fails the test instead of the binary.
func gridErr(t *testing.T, name string, fn func() error) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", name, r)
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = fn()
	}()
	return err
}

// TestGridRunnersRejectUnknownApps: an unknown or empty application name
// is a workload error from every grid runner, never a panic.
func TestGridRunnersRejectUnknownApps(t *testing.T) {
	c := streamConfig()
	for _, app := range []string{"bogus", ""} {
		runners := map[string]func() error{
			"Accuracy": func() error { _, err := c.Accuracy([]string{workload.KMeans, app}); return err },
			"Overhead": func() error { _, err := c.Overhead([]string{workload.KMeans, app}); return err },
			"Sweep":    func() error { _, err := c.SweepK(app, []float64{1.125}); return err },
			"ROC":      func() error { _, err := c.ROC([]string{app}); return err },
		}
		for name, fn := range runners {
			if err := gridErr(t, name, fn); err == nil {
				t.Errorf("%s accepted app %q", name, app)
			}
		}
	}
}

// TestGridRunnersRejectZeroRuns: Runs = 0 is a configuration error, not an
// empty table of zero-valued distributions.
func TestGridRunnersRejectZeroRuns(t *testing.T) {
	c := streamConfig()
	c.Runs = 0
	runners := map[string]func() error{
		"Accuracy": func() error { _, err := c.Accuracy([]string{workload.KMeans}); return err },
		"Overhead": func() error { _, err := c.Overhead([]string{workload.KMeans}); return err },
		"Sweep":    func() error { _, err := c.SweepK(workload.KMeans, []float64{1.125}); return err },
		"ROC":      func() error { _, err := c.ROC([]string{workload.KMeans}); return err },
	}
	for name, fn := range runners {
		if err := gridErr(t, name, fn); err == nil {
			t.Errorf("%s accepted Runs = 0", name)
		}
	}
}
