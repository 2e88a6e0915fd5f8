package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
)

// synthSample builds a deterministic sample: a stable distribution around
// base with a small repeating jitter, which KS accepts against itself and
// strongly rejects against a shifted base.
func synthSample(i int, tpcm, base float64) pcm.Sample {
	return pcm.Sample{
		T:      float64(i+1) * tpcm,
		Access: base + float64(i%7),
		Miss:   base/10 + float64(i%3),
	}
}

// feedSynth streams samples [from, to) into the session.
func feedSynth(t *testing.T, sess *Session, from, to int, tpcm, base float64) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := sess.Observe(synthSample(i, tpcm, base)); err != nil {
			t.Fatalf("observe sample %d: %v", i, err)
		}
	}
}

// TestProfileWindowExactSampleCount pins the profiling-window boundary: a
// ProfileSeconds window over a T_PCM grid starting at T_PCM holds exactly
// SampleCount(ProfileSeconds, T_PCM) samples, and the boundary sample is
// the FIRST MONITORED one. The historical `s.T >= cutoff` loop consumed one
// sample past the window into the profile (3001 here instead of 3000).
func TestProfileWindowExactSampleCount(t *testing.T) {
	const (
		tpcm           = 0.01
		profileSeconds = 30.0
		total          = 3500
	)
	var profiled int
	sess, err := NewSession(StreamSpec{
		VM:             "t",
		ProfileSeconds: profileSeconds,
		OnProfile:      func(_ detect.Profile, n int) { profiled = n },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedSynth(t, sess, 0, total, tpcm, 100)
	want := pcm.SampleCount(profileSeconds, tpcm)
	if profiled != want {
		t.Errorf("profile consumed %d samples, want exactly %d", profiled, want)
	}
	stats, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Monitored, uint64(total-want); got != want {
		t.Errorf("monitored %d samples, want %d (boundary sample must start the monitored stage)", got, want)
	}
	if stats.Ingested() != total {
		t.Errorf("ingested %d != streamed %d", stats.Ingested(), total)
	}
}

// ksTestConfig returns baseline parameters with a reference interval long
// enough that no re-collection lands inside the test windows.
func ksTestConfig() detect.KSTestConfig {
	cfg := detect.DefaultKSTestConfig()
	cfg.LR = 60
	return cfg
}

// TestKSTestReferencePredatesMonitoring asserts the Stage-1 seeding fix
// directly: the baseline's first reference (and hence its first KS check)
// happens inside the profiling window, before any monitored sample. The
// historical code discarded the profile window, so the first check could
// only happen AFTER monitoring began.
func TestKSTestReferencePredatesMonitoring(t *testing.T) {
	const (
		tpcm           = 0.01
		profileSeconds = 40.0
	)
	var checks []detect.CheckStat
	sess, err := NewSession(StreamSpec{
		VM:             "t",
		Scheme:         "kstest",
		ProfileSeconds: profileSeconds,
		KSConfig:       ksTestConfig(),
		KSOptions: []detect.KSTestOption{
			detect.WithKSTestCheckHook(func(cs detect.CheckStat) { checks = append(checks, cs) }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	feedSynth(t, sess, 0, 4500, tpcm, 100)
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no KS checks ran")
	}
	monitoringStart := profileSeconds + tpcm
	if checks[0].T >= monitoringStart {
		t.Errorf("first KS check at %.2fs, after monitoring began at %.2fs — reference was not seeded from the profile window",
			checks[0].T, monitoringStart)
	}
}

// TestKSTestDetectsAttackRightAfterProfiling is the end-to-end regression:
// a stream attacked from the instant monitoring starts. Pre-fix, KStest
// collected its first reference from the (attacked) monitored tail,
// learned an under-attack baseline, and never alarmed.
func TestKSTestDetectsAttackRightAfterProfiling(t *testing.T) {
	const (
		tpcm           = 0.01
		profileSeconds = 40.0
		profileN       = 4000
		total          = 7500
	)
	sess, err := NewSession(StreamSpec{
		VM:             "t",
		Scheme:         "kstest",
		ProfileSeconds: profileSeconds,
		KSConfig:       ksTestConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1: normal behaviour around 100.
	feedSynth(t, sess, 0, profileN, tpcm, 100)
	// Stage 2: full-intensity bus-lock-like collapse from the very first
	// monitored sample.
	feedSynth(t, sess, profileN, total, tpcm, 30)
	stats, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alarms == 0 {
		t.Fatal("KStest raised no alarm for a stream attacked right after profiling: the baseline was learned under attack")
	}
	alarms := sess.Alarms()
	if first := alarms[0].T; first <= profileSeconds {
		t.Errorf("alarm at %.2fs is inside the attack-free profile window", first)
	}
}

// TestSessionSpecValidation covers spec normalization failures.
func TestSessionSpecValidation(t *testing.T) {
	if _, err := NewSession(StreamSpec{VM: "x", ProfileSeconds: 0}); err == nil {
		t.Error("zero profile window accepted")
	}
	if _, err := NewSession(StreamSpec{VM: "x", ProfileSeconds: -3}); err == nil {
		t.Error("negative profile window accepted")
	}
	if _, err := NewSession(StreamSpec{VM: "x", Scheme: "bogus", ProfileSeconds: 30}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestSessionSchemesFromRegistry: a session accepts every canonical name
// and wire alias of the detect registry and keeps the lowercase alias.
func TestSessionSchemesFromRegistry(t *testing.T) {
	for _, s := range detect.Schemes() {
		for _, name := range []string{s.Name, s.Alias} {
			sess, err := NewSession(StreamSpec{VM: "x", Scheme: name, ProfileSeconds: 30})
			if err != nil {
				t.Fatalf("scheme %q rejected: %v", name, err)
			}
			if got := sess.Name(); got != s.Alias {
				t.Fatalf("scheme %q normalized to %q, want %q", name, got, s.Alias)
			}
		}
	}
}

// TestSessionEOFDuringProfiling: a stream that ends inside Stage 1 is an
// error at Close, with the fill level in the message.
func TestSessionEOFDuringProfiling(t *testing.T) {
	sess, err := NewSession(StreamSpec{VM: "x", ProfileSeconds: 900})
	if err != nil {
		t.Fatal(err)
	}
	feedSynth(t, sess, 0, 10, 0.01, 100)
	_, err = sess.Close()
	if err == nil {
		t.Fatal("truncated profiling stream accepted")
	}
	if !strings.Contains(err.Error(), "profiling window") || !strings.Contains(err.Error(), "10 samples") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestSessionSanitizerCounts: malformed monitored samples are dropped and
// counted, never fed to the detector, and never kill the stream.
func TestSessionSanitizerCounts(t *testing.T) {
	const profileN = 2000
	sess, err := NewSession(StreamSpec{VM: "x", ProfileSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	feedSynth(t, sess, 0, profileN+100, 0.01, 100)
	bad := []pcm.Sample{
		{T: math.NaN(), Access: 100, Miss: 10},
		{T: 21.02, Access: -5, Miss: 1},
		{T: 21.03, Access: 10, Miss: 20}, // miss > access
	}
	for _, s := range bad {
		if err := sess.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != uint64(len(bad)) {
		t.Errorf("dropped = %d, want %d", stats.Dropped, len(bad))
	}
}

// TestSessionAlarmCallbackError: a failing OnAlarm poisons the session.
func TestSessionAlarmCallbackError(t *testing.T) {
	const profileN = 2000
	sess, err := NewSession(StreamSpec{
		VM:             "x",
		ProfileSeconds: 20,
		OnAlarm:        func(detect.Alarm) error { return fmt.Errorf("sink broken") },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedSynth(t, sess, 0, profileN, 0.01, 100)
	// Collapse the counters far outside the profiled bounds until the
	// detector alarms and the callback error surfaces.
	var cbErr error
	for i := profileN; i < profileN+6000; i++ {
		if cbErr = sess.Observe(synthSample(i, 0.01, 5)); cbErr != nil {
			break
		}
	}
	if cbErr == nil || !strings.Contains(cbErr.Error(), "sink broken") {
		t.Fatalf("OnAlarm error not surfaced (err=%v)", cbErr)
	}
	if err := sess.Observe(synthSample(0, 0.01, 5)); err == nil {
		t.Error("poisoned session accepted another sample")
	}
}

// TestSessionAlarmAtProfileBoundary: an attack that begins exactly at the
// profile/monitor boundary is detected — the boundary sample opens the
// monitored stage instead of leaking into the profile, so no attacked
// telemetry trains the baseline and the alarm lands shortly after the
// boundary, never before it.
func TestSessionAlarmAtProfileBoundary(t *testing.T) {
	const profileSeconds = 60.0
	var buf bytes.Buffer
	if _, err := WriteSimulatedStream(&buf, ReplaySpec{
		App: "kmeans", Seconds: 120, AttackAt: profileSeconds, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	var alarms []detect.Alarm
	sess, err := NewSession(StreamSpec{
		VM: "boundary", App: "kmeans", Scheme: "sds", ProfileSeconds: profileSeconds,
		OnAlarm: func(a detect.Alarm) error { alarms = append(alarms, a); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := feed.NewReader(&buf)
	for {
		smp, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Observe(smp); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The window [0.01, 60.01) holds exactly 6000 samples; sample 6001 at
	// t=60.01 is the first monitored one.
	if stats.ProfileSamples != 6000 {
		t.Errorf("profile holds %d samples, want 6000", stats.ProfileSamples)
	}
	if stats.Monitored != 6000 {
		t.Errorf("monitored %d samples, want 6000", stats.Monitored)
	}
	if len(alarms) == 0 {
		t.Fatal("attack starting at the profile boundary was not detected")
	}
	for _, a := range alarms {
		if a.T <= profileSeconds {
			t.Errorf("alarm at t=%g predates the monitored stage", a.T)
		}
	}
}
