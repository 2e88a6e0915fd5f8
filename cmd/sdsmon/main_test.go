package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/workload"
)

// TestRunAcceptsEveryRegisteredScheme drives a short monitoring run under
// every canonical name and wire alias of the detect registry. FaceNet is
// periodic, so SDS/P applies too.
func TestRunAcceptsEveryRegisteredScheme(t *testing.T) {
	for _, s := range detect.Schemes() {
		for _, name := range []string{s.Name, s.Alias} {
			var out bytes.Buffer
			if err := run(&out, workload.FaceNet, "buslock", 5, 10, name, 1); err != nil {
				t.Fatalf("scheme %q rejected: %v", name, err)
			}
			if !strings.Contains(out.String(), "run complete") {
				t.Fatalf("scheme %q: run did not complete:\n%s", name, out.String())
			}
		}
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	err := run(io.Discard, workload.FaceNet, "buslock", 5, 10, "bogus", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown scheme: err = %v", err)
	}
}
