package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/memdos/sds/internal/metrics"
)

// The parallel experiment engine. The evaluation grid — app × attack ×
// scheme × run for Figs. 9–12 and value × attack × run for Figs. 13–18 —
// is embarrassingly parallel: every detection run's telemetry derives all
// of its randomness from its stream key — (Seed, app, attack, run index)
// plus the stream-affecting config, T_PCM, StageSeconds and the ramp range
// (see stream.go) — and its detector and score from the scheme and its
// config. The scheme never enters the telemetry, so the runs of one stream
// key share one generated stream (throttled schemes, whose decisions feed
// back into their telemetry, excepted). The engine fans the grid out over a
// bounded worker pool one stream at a time and writes each result into its
// input-order slot, so the pooled distributions are bit-identical to the
// serial path at any worker count.

// workers returns the effective worker-pool size: Config.Parallel when
// positive, else one worker per available CPU.
func (c Config) workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// parallelMap runs fn(0..n-1) on a pool of the given size and returns the
// results in input order. The first error cancels the remaining work —
// queued indices are never started, in-flight ones finish — and is
// returned; when several workers fail concurrently, the lowest-index error
// wins so failures are as deterministic as the results. workers ≤ 1 runs
// serially, which is also the bit-exactness reference for the pool.
func parallelMap[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if workers > n {
		workers = n
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		errIdx   = n
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runPool accumulates per-run detection outcomes into the distributions
// the paper's figures plot. It is the single pooling path shared by the
// accuracy cells (Figs. 9–11) and the sensitivity sweeps (Figs. 13–18), so
// the delay contract is enforced in exactly one place: a latched
// pre-existing alarm yields Detected == true with Delay == -1 (no rising
// edge occurred during the attack), and only real onsets — Delay ≥ 0 —
// may enter the delay distribution.
type runPool struct {
	recalls, specs, delays []float64
	detected, onsets, runs int
}

// add pools one run's outcome. Vacuous statistics are excluded per side:
// recall, detection and delay only exist for runs that actually contained
// an attack onset (TP+FN > 0) — a no-attack run's Recall is a vacuous 1
// (metrics.ratioOrOne) and pooling it would inflate the recall and
// detection-rate of any cell that mixes attack kinds with Kind None, as
// the ROC tournament's FPR cells do. Symmetrically, specificity is pooled
// only from runs with negative epochs. This mirrors the fig11 "n/a"
// accounting: a denominator no run contributes to yields no sample, not a
// fake perfect one.
func (p *runPool) add(out metrics.Outcome) {
	p.runs++
	if out.TP+out.FN > 0 {
		p.onsets++
		p.recalls = append(p.recalls, out.Recall*100)
		if out.Detected {
			p.detected++
		}
		if out.Delay >= 0 {
			p.delays = append(p.delays, out.Delay)
		}
	}
	if out.TN+out.FP > 0 {
		p.specs = append(p.specs, out.Specificity*100)
	}
}

// recall, specificity and delay summarize the pooled runs.
func (p *runPool) recall() metrics.Distribution      { return metrics.Summarize(p.recalls) }
func (p *runPool) specificity() metrics.Distribution { return metrics.Summarize(p.specs) }
func (p *runPool) delay() metrics.Distribution       { return metrics.Summarize(p.delays) }

// detectionRate is the fraction of pooled attack-onset runs that detected
// the attack. Runs without an onset are excluded from the denominator —
// there was nothing to detect.
func (p *runPool) detectionRate() float64 {
	if p.onsets == 0 {
		return 0
	}
	return float64(p.detected) / float64(p.onsets)
}
