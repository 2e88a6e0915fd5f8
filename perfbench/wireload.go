package main

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// pools memoizes buildPool per seed: a traced run renders the pool once
// for its end-to-end passes and its layer probes.
var pools = map[uint64][]*wireSession{}

func sessionPool(seed uint64, r *report) ([]*wireSession, error) {
	if pool, ok := pools[seed]; ok {
		return pool, nil
	}
	pool, redraws, err := buildPool(seed)
	if err != nil {
		return nil, err
	}
	r.note("pool.sessions", float64(len(pool)), "count")
	r.note("pool.sdsp_redraws", float64(redraws), "count")
	pools[seed] = pool
	return pool, nil
}

// launchDaemon starts sdsd setupReps times and keeps the last instance.
// The set-up time is the median launch-to-first-handshake time.
func launchDaemon(bin string) (*daemon, float64, error) {
	var took []float64
	for i := 0; ; i++ {
		d, t, err := startDaemon(bin)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, t.Seconds())
		if i == setupReps-1 {
			return d, median(took), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// warmup is the unmeasured lead-in of a wire pass: connections, the
// daemon's buffer pools and the page cache settle before timing starts.
func warmup(dur time.Duration) time.Duration { return min(time.Second, dur/5) }

// countPass adds a pass's sessions to the report and prints its first
// failures.
func countPass(r *report, pass wirePass) {
	r.count(pass.sessions, pass.failed)
	for _, f := range pass.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed", f)
	}
}

// runWireWorkload streams the session pool to a real sdsd for the measured
// time, on wireConns closed-loop connections over loopback TCP.
func runWireWorkload(p params, r *report, binary bool) error {
	pool, err := sessionPool(p.seed, r)
	if err != nil {
		return err
	}
	d, setup, err := launchDaemon(p.sdsd)
	if err != nil {
		return err
	}
	defer d.stop()
	countPass(r, runWirePass(d.addr, pool, binary, toDaemon, warmup(p.dur), nil, 0))
	pass := runWirePass(d.addr, pool, binary, toDaemon, p.dur, p.tr, 1)
	countPass(r, pass)
	rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.set("throughput_msamples_s", pass.sliceThroughput(), "Msamples/s")

	r.set("op_ms_p50", median(pass.sessionMs), "ms")
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", rss, "MiB")
	tail := tailPercentile(len(pass.sessionMs))
	r.note("session_ms_p50", median(pass.sessionMs), "ms")
	r.note("session_ms_"+percentileName(tail), percentile(pass.sessionMs, tail), "ms")
	r.note("sessions", float64(pass.sessions), "count")
	if len(pass.lagMs) > 0 {
		tail := tailPercentile(len(pass.lagMs))
		r.note("alarm_lag_ms_p50", median(pass.lagMs), "ms")
		r.note("alarm_lag_ms_"+percentileName(tail), percentile(pass.lagMs, tail), "ms")
	}
	r.note("alarms", float64(len(pass.lagMs)), "count")
	return nil
}
