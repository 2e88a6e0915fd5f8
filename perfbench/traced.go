package main

import (
	"fmt"
	"os"
	"sort"
)

// runTraced is the traced run. It runs the workload twice for half the
// measured time each, untraced and then traced, and reports the tracing
// overhead as the drop in throughput_msamples_s. Then it runs every layer
// probe with spans on, so each traced run prints every per-layer metric,
// and writes the spans out as JSON lines.
func runTraced(p params, r *report, fn func(params, *report) error) error {
	half := p
	half.dur = p.dur / 2
	plain := newReport()
	if err := fn(half, plain); err != nil {
		return err
	}
	tr := newTracer()
	half.tr = tr
	traced := newReport()
	if err := fn(half, traced); err != nil {
		return err
	}
	r.count(plain.Attempted+traced.Attempted, plain.Failed+traced.Failed)
	untracedTP := plain.Metrics["throughput_msamples_s"].Value
	tracedTP := traced.Metrics["throughput_msamples_s"].Value
	r.set("trace.throughput_untraced_msamples_s", untracedTP, "Msamples/s")
	r.set("trace.throughput_traced_msamples_s", tracedTP, "Msamples/s")
	r.set("trace.overhead_pct", 100*(untracedTP-tracedTP)/untracedTP, "%")

	p.tr = tr
	for _, probe := range []func(params, *report) error{wireLadder, detectCosts, experimentCosts, cloudLadder} {
		if err := probe(p, r); err != nil {
			return err
		}
	}

	spans := tr.snapshot()
	r.set("trace.spans", float64(len(spans)), "count")
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note("self_ms."+name, float64(self[name])/1e6, "ms")
	}
	path := traceFile(p.out, p.workload, p.seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
