package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/experiment"
	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/server"
	"github.com/memdos/sds/internal/workload"
)

// Layer probes: each times calls into one layer's public functions from
// outside, on the inputs of the workloads, and reports per-unit costs.

// Durations of the traced run's short end-to-end and sink passes, each
// after an unmeasured warm-up.
const (
	ladderWarmup = 500 * time.Millisecond
	ladderE2E    = 2 * time.Second
	ladderSink   = time.Second
)

// wireLadder measures both encodings' wire ladders on the session pool:
// the read-and-discard sink under the same client and bytes (transport
// floor), frame decode or CSV parse, and Session observation, each per
// sample, plus the residual of the end-to-end figure none of them explain.
// The parts plus the residual must equal the end-to-end ns/sample.
func wireLadder(p params, r *report) error {
	tr := p.tr
	pool, err := sessionPool(p.seed, r)
	if err != nil {
		return err
	}
	observe, closeMs, err := sessionCosts(pool, r, tr)
	if err != nil {
		return err
	}
	r.set("server.session_observe_ns_per_sample", observe, "ns")
	r.set("server.profile_close_ms", closeMs, "ms")

	d, _, err := startDaemon(p.sdsd)
	if err != nil {
		return err
	}
	defer d.stop()
	sk, err := startSink()
	if err != nil {
		return err
	}
	defer sk.close()
	for round, binary := range []bool{true, false} {
		enc, decodeName := "csv", "feed.csv_parse_ns_per_sample"
		if binary {
			enc, decodeName = "bin", "feed.bin_decode_ns_per_sample"
		}
		decode, err := decodeCost(pool, binary, r, tr)
		if err != nil {
			return err
		}
		countPass(r, runWirePass(d.addr, pool, binary, toDaemon, ladderWarmup, nil, 10+round))
		e2e := runWirePass(d.addr, pool, binary, toDaemon, ladderE2E, nil, 20+round)
		countPass(r, e2e)
		countPass(r, runWirePass(sk.addr(), pool, binary, toSink, ladderWarmup, nil, 30+round))
		floor := runWirePass(sk.addr(), pool, binary, toSink, ladderSink, nil, 40+round)
		countPass(r, floor)
		total := e2e.nsPerSample()
		residual := total - floor.nsPerSample() - decode - observe
		r.set(decodeName, decode, "ns")
		r.set("wire."+enc+".e2e_ns_per_sample", total, "ns")
		r.set("wire."+enc+".sink_ns_per_sample", floor.nsPerSample(), "ns")
		r.set("wire."+enc+".residual_ns_per_sample", residual, "ns")
		r.set("wire."+enc+".alarm_lag_ms_p50", median(e2e.lagMs), "ms")
		sum := floor.nsPerSample() + decode + observe + residual
		r.count(1, 0)
		if math.Abs(sum-total) > 1e-9*total {
			r.count(0, 1)
			fmt.Fprintf(os.Stderr, "perfbench: wire.%s ladder parts sum to %g ns/sample, end to end is %g\n", enc, sum, total)
		}
	}
	return nil
}

// inParallel runs fn(g) for g in [0, wireConns) concurrently, the wire
// workloads' concurrency, and returns the wall time until all finish. The
// wire ladder's in-process parts are timed this way so that they are wall
// nanoseconds per sample at the same concurrency as the end-to-end figure
// they are subtracted from.
func inParallel(fn func(g int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < wireConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// decodeCost times feed's decoder over the exact stream bytes of every
// pool session (FrameScanner.Next for binary frames, Reader.Next for CSV),
// wireConns sessions at a time, and returns the median wall ns/sample over
// repeated passes. Every session must decode exactly the samples that were
// encoded.
func decodeCost(pool []*wireSession, binary bool, r *report, tr *tracer) (float64, error) {
	reps, name := 3, "feed.csv_parse"
	if binary {
		reps, name = 7, "feed.bin_decode" // ~100× cheaper than CSV; more passes steady it
	}
	var costs []float64
	var bad atomic.Int64
	for rep := 0; rep < reps; rep++ {
		wall := inParallel(func(g int) {
			dst := make([]pcm.Sample, 0, feed.MaxFrameSamples)
			for i := g; i < len(pool); i += wireConns {
				s := pool[i]
				body, _ := s.body(binary)
				sp := tr.begin(name, -1, int64(s.idx))
				n, err := decodeAll(body, binary, dst)
				tr.end(sp)
				if err != nil || n != len(s.samples) {
					bad.Add(1)
					fmt.Fprintf(os.Stderr, "perfbench: session %d: decoded %d of %d samples: %v\n", s.idx, n, len(s.samples), err)
				}
			}
		})
		costs = append(costs, float64(wall.Nanoseconds())/float64(poolSamples(pool)))
	}
	r.count(reps*len(pool), int(bad.Load()))
	return median(costs), nil
}

// decodeAll decodes one encoded stream and returns its sample count.
func decodeAll(body []byte, binary bool, dst []pcm.Sample) (int, error) {
	n := 0
	if binary {
		var sc feed.FrameScanner
		for {
			consumed, k, _, err := sc.Next(body, dst)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			if consumed == 0 {
				return n, io.ErrUnexpectedEOF
			}
			n += k
			body = body[consumed:]
		}
	}
	rd := feed.NewReader(bytes.NewReader(body))
	for {
		if _, err := rd.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
		n++
	}
}

// sessionCosts feeds every pool session, flush by flush, to an in-process
// server.Session. It first runs each session through Stage 1, timing the
// ObserveBatch call that ends it (profile and detector construction); then
// it times the monitored remainder of all sessions, wireConns at a time.
// It returns the median wall ns per monitored sample over passes and the
// median profile-close time. Each session must raise its reference alarms.
func sessionCosts(pool []*wireSession, r *report, tr *tracer) (nsPerSample, closeMs float64, err error) {
	const reps = 3
	var costs, closes []float64
	for rep := 0; rep < reps; rep++ {
		sessions := make([]*server.Session, len(pool))
		alarms := make([][]float64, len(pool))
		rest := make([]int, len(pool)) // first monitored-only flush
		monitored := 0
		for i, s := range pool {
			sess, err := s.newSession(func(t float64) { alarms[i] = append(alarms[i], t) })
			if err != nil {
				return 0, 0, err
			}
			cutoff := s.samples[0].T + profileSeconds
			lo := 0
			for f, hi := range s.flushEnd {
				batch := s.samples[lo:hi]
				lo = hi
				if batch[len(batch)-1].T < cutoff {
					_, err = sess.ObserveBatch(batch)
				} else {
					sp := tr.begin("server.profile_close", -1, int64(s.idx))
					start := time.Now()
					_, err = sess.ObserveBatch(batch)
					closes = append(closes, float64(time.Since(start))/1e6)
					tr.end(sp)
					rest[i] = f + 1
					monitored += len(s.samples) - hi
				}
				if err != nil {
					return 0, 0, fmt.Errorf("session %d: %w", s.idx, err)
				}
				if rest[i] > 0 {
					break
				}
			}
			sessions[i] = sess
		}
		var bad atomic.Int64
		wall := inParallel(func(g int) {
			for i := g; i < len(pool); i += wireConns {
				s := pool[i]
				sp := tr.begin("server.session_observe", -1, int64(s.idx))
				lo := s.flushEnd[rest[i]-1]
				for _, hi := range s.flushEnd[rest[i]:] {
					if _, err := sessions[i].ObserveBatch(s.samples[lo:hi]); err != nil {
						bad.Add(1)
						fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", s.idx, err)
						break
					}
					lo = hi
				}
				tr.end(sp)
			}
		})
		for i, s := range pool {
			if !slices.Equal(alarms[i], s.refAlarms) {
				bad.Add(1)
				fmt.Fprintf(os.Stderr, "perfbench: session %d: in-process alarms %v, reference %v\n", s.idx, alarms[i], s.refAlarms)
			}
		}
		r.count(len(pool), int(bad.Load()))
		costs = append(costs, float64(wall.Nanoseconds())/float64(monitored))
	}
	return median(costs), median(closes), nil
}

// detectApp is the application the detector probes run on: periodic, so
// every scheme (the period-based SDS/P included) applies.
const detectApp = workload.FaceNet

// probeStream is a 600 s attacked FaceNet stream: the post-profile samples
// the detector probes observe.
func probeStream(seed uint64) ([]pcm.Sample, error) {
	var raw bytes.Buffer
	spec := server.ReplaySpec{App: detectApp, Seconds: 600, AttackAt: 300, AttackKind: attack.BusLock, Seed: seed}
	if _, err := server.WriteSimulatedStreamBinary(&raw, spec); err != nil {
		return nil, err
	}
	samples, _, err := feed.NewBinReader(&raw).ReadAll()
	return samples, err
}

// movingAverages computes the detectors' window inputs from raw samples:
// the mean over each W-sample window, every ΔW samples.
func movingAverages(samples []pcm.Sample, cfg detect.Config) (ts, access, miss []float64) {
	for end := cfg.W; end <= len(samples); end += cfg.DW {
		var a, m float64
		for _, s := range samples[end-cfg.W : end] {
			a += s.Access
			m += s.Miss
		}
		ts = append(ts, samples[end-1].T)
		access = append(access, a/float64(cfg.W))
		miss = append(miss, m/float64(cfg.W))
	}
	return ts, access, miss
}

// detectCosts times, for every scheme, Observe behind the sanitizer over
// the probe stream and (where the scheme takes windows) ObserveMA over its
// moving averages; detector construction through experiment.BuildDetector
// is timed on the way. It also times BuildProfile over a wire session's
// Stage-1 window and the workload model's Sample under an attack.
func detectCosts(p params, r *report) error {
	tr := p.tr
	const reps = 3
	samples, err := probeStream(p.seed)
	if err != nil {
		return err
	}
	cfg := gridConfig(p.seed, 1)
	ts, maA, maM := movingAverages(samples, cfg.Detect)
	const maRounds = 20 // the window series is short; replay it, time shifted
	span := ts[len(ts)-1] - ts[0] + cfg.Detect.TPCM*float64(cfg.Detect.DW)
	var builds []float64
	build := func(scheme experiment.Scheme) (detect.Detector, error) {
		sp := tr.begin("experiment.build_detector", -1, 0)
		start := time.Now()
		_, det, _, err := cfg.BuildDetector(detectApp, scheme, p.seed)
		builds = append(builds, float64(time.Since(start))/1e6)
		tr.end(sp)
		return det, err
	}
	for _, scheme := range experiment.SchemesFor(detectApp) {
		name := wireScheme(scheme)
		var obs, win []float64
		for rep := 0; rep < reps; rep++ {
			det, err := build(scheme)
			if err != nil {
				return err
			}
			san := detect.NewSanitizer(det)
			sp := tr.begin("detect.observe."+name, -1, int64(rep))
			start := time.Now()
			for _, s := range samples {
				san.Observe(s)
			}
			obs = append(obs, float64(time.Since(start).Nanoseconds())/float64(len(samples)))
			tr.end(sp)

			if _, ok := det.(detect.WindowObserver); !ok {
				continue
			}
			if det, err = build(scheme); err != nil {
				return err
			}
			wo := det.(detect.WindowObserver)
			sp = tr.begin("detect.observe_ma."+name, -1, int64(rep))
			start = time.Now()
			for round := 0; round < maRounds; round++ {
				shift := float64(round) * span
				for i := range ts {
					wo.ObserveMA(ts[i]+shift, maA[i], maM[i])
				}
			}
			win = append(win, float64(time.Since(start).Nanoseconds())/float64(maRounds*len(ts)))
			tr.end(sp)
		}
		r.count(1, 0)
		r.set("detect."+name+".observe_ns_per_sample", median(obs), "ns")
		if len(win) > 0 {
			r.set("detect."+name+".observe_ma_ns_per_window", median(win), "ns")
		}
	}
	r.set("experiment.build_detector_ms", median(builds), "ms")

	profile := samples[:pcm.SampleCount(profileSeconds, cfg.Detect.TPCM)]
	var profs []float64
	for rep := 0; rep < 5; rep++ {
		sp := tr.begin("detect.build_profile", -1, int64(rep))
		start := time.Now()
		if _, err := detect.BuildProfile(detectApp, profile, cfg.Detect); err != nil {
			return err
		}
		profs = append(profs, float64(time.Since(start))/1e6)
		tr.end(sp)
	}
	r.count(1, 0)
	r.set("detect.build_profile_ms", median(profs), "ms")

	var sampleNs []float64
	sched := attack.Schedule{Kind: attack.BusLock, Start: 300, Ramp: 10}
	n := pcm.SampleCount(600, cfg.Detect.TPCM)
	for rep := 0; rep < reps; rep++ {
		model, err := workload.NewModel(workload.MustAppProfile(detectApp), randx.Derive(p.seed, uint64(rep)))
		if err != nil {
			return err
		}
		sp := tr.begin("workload.sample", -1, int64(rep))
		start := time.Now()
		var sink float64
		for i := 0; i < n; i++ {
			now := float64(i+1) * cfg.Detect.TPCM
			a, m := model.Sample(cfg.Detect.TPCM, sched.Env(now, false))
			sink += a + m
		}
		sampleNs = append(sampleNs, float64(time.Since(start).Nanoseconds())/float64(n))
		tr.end(sp)
		if math.IsNaN(sink) {
			return fmt.Errorf("workload model produced NaN telemetry")
		}
	}
	r.count(1, 0)
	r.set("workload.sample_ns", median(sampleNs), "ns")
	return nil
}

// experimentCosts times one detection run per scheme (its uncached Stage-1
// profile included) and the grid's worker-pool occupancy: the serial grid's
// wall time over workers × the parallel grid's wall time.
func experimentCosts(p params, r *report) error {
	tr := p.tr
	cfg := gridConfig(p.seed, 1)
	for _, scheme := range experiment.SchemesFor(detectApp) {
		sp := tr.begin("experiment.detection_run", -1, 0)
		start := time.Now()
		if _, err := cfg.DetectionRun(detectApp, attack.BusLock, scheme, 0); err != nil {
			return err
		}
		r.set("experiment.detection_run_ms."+wireScheme(scheme), float64(time.Since(start))/1e6, "ms")
		tr.end(sp)
		r.count(1, 0)
	}
	ref, err := gridReference(p.seed, tr)
	if err != nil {
		return err
	}
	pass, err := runGridPass(p.seed, ref, tr, -1)
	if err != nil {
		return err
	}
	r.count(pass.cells, pass.failed)
	r.set("experiment.worker_busy_frac", ref.wall.Seconds()/(gridWorkers*pass.wall().Seconds()), "ratio")
	return nil
}
