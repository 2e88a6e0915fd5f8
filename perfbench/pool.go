package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/experiment"
	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/server"
	"github.com/memdos/sds/internal/workload"
)

// Session shape of the wire workloads. A session is one VM stream: a
// Stage-1 profile window, then monitoring; attacked sessions come under a
// memory DoS attack partway through the monitored span, late enough for
// every scheme's decision window to fill first.
const (
	sessionSeconds  = 240.0
	profileSeconds  = 90.0
	attackEarliest  = 140.0
	attackLatest    = 170.0
	maxFlushSamples = 100 // a live agent flushes 1..maxFlushSamples samples at a time
)

// wireSession is one pre-rendered VM stream of the pool, in both
// encodings, with the alarms an in-process server.Session raises on it.
type wireSession struct {
	idx      int
	app      string
	scheme   string // handshake scheme name
	attacked bool

	samples []pcm.Sample
	// flushEnd[i] is the sample index one past the end of flush i.
	flushEnd []int
	// bin and csv hold the encoded stream; binCut[i] and csvCut[i] are the
	// byte offsets one past flush i. The binary stream's end frame follows
	// the last flush inside the final cut.
	bin, csv       []byte
	binCut, csvCut []int

	// refAlarms are the alarm times of the in-process reference session.
	refAlarms []float64
}

// handshake is the sds/1 line that opens the session as VM vm.
func (s *wireSession) handshake(vm string, binary bool) string {
	hs := fmt.Sprintf("sds/1 vm=%s app=%s scheme=%s profile=%g", vm, s.app, s.scheme, profileSeconds)
	if binary {
		hs += " frames=bin"
	}
	return hs + "\n"
}

// body returns the encoded stream and its flush cuts.
func (s *wireSession) body(binary bool) ([]byte, []int) {
	if binary {
		return s.bin, s.binCut
	}
	return s.csv, s.csvCut
}

// flushOf returns the index of the flush that carries the sample at time t.
func (s *wireSession) flushOf(t float64) int {
	i, _ := slices.BinarySearchFunc(s.samples, t, func(smp pcm.Sample, t float64) int {
		switch {
		case smp.T < t:
			return -1
		case smp.T > t:
			return 1
		}
		return 0
	})
	f, found := slices.BinarySearch(s.flushEnd, i+1)
	if !found && f == len(s.flushEnd) {
		f--
	}
	return f
}

// wireScheme maps an experiment scheme to its handshake name.
func wireScheme(s experiment.Scheme) string {
	return strings.ToLower(strings.ReplaceAll(string(s), "/", ""))
}

// buildPool derives the wire workloads' session pool from seed. The pool
// holds one session per (application, scheme) pair the server accepts —
// every scheme on every app, the period-based ones only on periodic apps —
// so every seed runs the same mix; half the sessions, chosen by the seed,
// are attacked. The seed draws the telemetry, the attack kind and start,
// the live-agent flush sizes and the order. It returns the pool and how
// many streams were redrawn (see drawStream).
func buildPool(seed uint64) ([]*wireSession, int, error) {
	rng := randx.DeriveString(seed, "perfbench/pool")
	var pool []*wireSession
	for _, app := range workload.AppNames() {
		for _, scheme := range experiment.SchemesFor(app) {
			pool = append(pool, &wireSession{app: app, scheme: wireScheme(scheme)})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	redraws := 0
	for i, s := range pool {
		s.idx = i
		s.attacked = i%2 == 1
		n, err := s.drawStream(rng)
		if err != nil {
			return nil, 0, fmt.Errorf("session %d (%s/%s): %w", i, s.app, s.scheme, err)
		}
		redraws += n
	}
	return pool, redraws, nil
}

// maxRedraws bounds drawStream's attempts at one session.
const maxRedraws = 20

// drawStream generates the session's telemetry, flushes and encodings and
// computes its reference alarms. SDS/P refuses a Stage-1 profile in which
// it finds no period; on a 90 s window that happens to roughly one stream
// in six of the periodic apps (at any window from 90 s to 300 s; it
// vanishes at the 2000 s windows of the experiment grid). Such a stream
// would be a session the server rejects, not one it processes, so it is
// redrawn, and the redraw count is reported with the results. Any other
// failure is an error.
func (s *wireSession) drawStream(rng *randx.Rand) (redraws int, err error) {
	for ; ; redraws++ {
		spec := server.ReplaySpec{App: s.app, Seconds: sessionSeconds, Seed: rng.Uint64()}
		if s.attacked {
			spec.AttackAt = rng.Uniform(attackEarliest, attackLatest)
			spec.AttackKind = attack.BusLock
			if rng.Bool(0.5) {
				spec.AttackKind = attack.Cleanse
			}
		}
		var raw bytes.Buffer
		if _, err := server.WriteSimulatedStreamBinary(&raw, spec); err != nil {
			return redraws, err
		}
		if s.samples, _, err = feed.NewBinReader(&raw).ReadAll(); err != nil {
			return redraws, err
		}
		s.flushEnd = s.flushEnd[:0]
		for n := 0; n < len(s.samples); {
			n = min(n+1+rng.IntN(maxFlushSamples), len(s.samples))
			s.flushEnd = append(s.flushEnd, n)
		}
		s.refAlarms, err = referenceAlarms(s)
		if err != nil && s.scheme == "sdsp" && strings.Contains(err.Error(), "requires a periodic profile") && redraws < maxRedraws {
			continue
		}
		if err != nil {
			return redraws, fmt.Errorf("reference session: %w", err)
		}
		return redraws, s.encode()
	}
}

// encode renders the session's flushes as binary frames and CSV lines.
func (s *wireSession) encode() error {
	var bin, csv bytes.Buffer
	bw, cw := feed.NewBinWriter(&bin), feed.NewWriter(&csv)
	lo := 0
	for i, hi := range s.flushEnd {
		if err := bw.WriteBatch(s.samples[lo:hi]); err != nil {
			return err
		}
		for _, smp := range s.samples[lo:hi] {
			if err := cw.Write(smp); err != nil {
				return err
			}
		}
		if i == len(s.flushEnd)-1 {
			if err := bw.End(); err != nil {
				return err
			}
		} else if err := bw.Flush(); err != nil {
			return err
		}
		if err := cw.Flush(); err != nil {
			return err
		}
		s.binCut = append(s.binCut, bin.Len())
		s.csvCut = append(s.csvCut, csv.Len())
		lo = hi
	}
	s.bin, s.csv = bin.Bytes(), csv.Bytes()
	return nil
}

// newSession opens the in-process server.Session the wire session is
// checked against, reporting alarm times to onAlarm.
func (s *wireSession) newSession(onAlarm func(t float64)) (*server.Session, error) {
	return server.NewSession(server.StreamSpec{
		VM:             fmt.Sprintf("ref-%03d", s.idx),
		App:            s.app,
		Scheme:         s.scheme,
		ProfileSeconds: profileSeconds,
		Config:         detect.DefaultConfig(),
		OnAlarm: func(a detect.Alarm) error {
			onAlarm(a.T)
			return nil
		},
	})
}

// referenceAlarms feeds the session's samples, flush by flush, to an
// in-process server.Session and returns the alarm times it raises.
func referenceAlarms(s *wireSession) ([]float64, error) {
	var alarms []float64
	sess, err := s.newSession(func(t float64) { alarms = append(alarms, t) })
	if err != nil {
		return nil, err
	}
	lo := 0
	for _, hi := range s.flushEnd {
		if _, err := sess.ObserveBatch(s.samples[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	if _, err := sess.Close(); err != nil {
		return nil, err
	}
	return alarms, nil
}

// poolSamples counts the samples in the pool.
func poolSamples(pool []*wireSession) int {
	n := 0
	for _, s := range pool {
		n += len(s.samples)
	}
	return n
}
