package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// wireConns is the number of concurrent client connections: one per core
// of the 2-core host the benchmark is sized for.
const wireConns = 2

// sessionTimeout bounds one session's connect-to-done time, so a wedged
// server fails the session instead of hanging the run.
const sessionTimeout = 30 * time.Second

// daemon is a running sdsd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer
	done chan error
}

// startDaemon launches sdsd on a free loopback port and returns once it
// answers a handshake, with the time that took.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-listen", d.addr, "-ops", "", "-quiet",
		"-profile-seconds", fmt.Sprint(profileSeconds))
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting sdsd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	for {
		if err := probeHandshake(d.addr); err == nil {
			return d, time.Since(start), nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("sdsd exited during start-up: %v\n%s", err, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("sdsd did not answer a handshake within 20s\n%s", d.log.String())
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeHandshake opens a session and waits for its ok line.
func probeHandshake(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, "sds/1 vm=setup-probe app=kmeans scheme=sds profile=90\n"); err != nil {
		return err
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "ok ") {
		return fmt.Errorf("handshake reply %q", strings.TrimSpace(line))
	}
	return nil
}

// peakRSSMiB reads a process's peak resident set size (VmHWM).
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// stop drains the daemon with SIGTERM (SIGKILL after 10 s) and waits for
// it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("sdsd did not drain within 10s: %v", <-d.done)
	}
}

// sessionOutcome is what one wire session observed.
type sessionOutcome struct {
	samples int // done line's samples= field, -1 without a done line
	alarms  []float64
	lagsMs  []float64
	errs    []string
	elapsed time.Duration
}

// verify compares the outcome with what was sent and, for a daemon
// session, its alarms with the in-process reference session. A nil return
// is a correct session.
func (o sessionOutcome) verify(s *wireSession, mode sinkMode) error {
	switch {
	case len(o.errs) > 0:
		return fmt.Errorf("%s", strings.Join(o.errs, "; "))
	case o.samples != len(s.samples):
		return fmt.Errorf("sent %d samples, server accounted %d", len(s.samples), o.samples)
	case mode == toDaemon && !slices.Equal(o.alarms, s.refAlarms):
		return fmt.Errorf("alarms at %v, reference session raised %v", o.alarms, s.refAlarms)
	}
	return nil
}

// sinkMode selects what the far end of a session is: the sdsd daemon, or
// the benchmark's own read-and-discard sink, which speaks no protocol and
// answers "done" at end of stream.
type sinkMode bool

const (
	toDaemon sinkMode = false
	toSink   sinkMode = true
)

// runSession streams one pool session to addr as VM vm: handshake,
// flush-by-flush writes, then wait for the done line.
func runSession(addr, vm string, s *wireSession, binary bool, mode sinkMode, tr *tracer, parent int, id int64) (out sessionOutcome) {
	out.samples = -1
	start := time.Now()
	defer func() { out.elapsed = time.Since(start) }()
	fail := func(format string, args ...any) sessionOutcome {
		out.errs = append(out.errs, fmt.Sprintf(format, args...))
		return out
	}

	hs := tr.begin("server.handshake", parent, id)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tr.end(hs)
		return fail("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(start.Add(sessionTimeout))
	br := bufio.NewReaderSize(conn, 64*1024)
	if _, err := io.WriteString(conn, s.handshake(vm, binary)); err != nil {
		tr.end(hs)
		return fail("handshake: %v", err)
	}
	if mode == toDaemon {
		reply, err := br.ReadString('\n')
		if err != nil {
			tr.end(hs)
			return fail("handshake reply: %v", err)
		}
		if !strings.HasPrefix(reply, "ok ") || binary != strings.HasSuffix(reply, " frames=bin\n") {
			tr.end(hs)
			return fail("handshake reply %q", strings.TrimSpace(reply))
		}
	}
	tr.end(hs)

	// Responses are read concurrently with the writes: alarm lines arrive
	// mid-stream, and an unread socket would backpressure the server.
	body, cuts := s.body(binary)
	writeAt := make([]time.Time, len(cuts))
	type alarmLine struct {
		t  float64
		at time.Time
	}
	var (
		alarms   []alarmLine
		respErrs []string
		samples  = -1
	)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if err != io.EOF || samples < 0 {
					respErrs = append(respErrs, fmt.Sprintf("reading responses: %v", err))
				}
				return
			}
			at := time.Now()
			line = strings.TrimSuffix(line, "\n")
			switch {
			case strings.HasPrefix(line, "alarm "):
				var ev struct {
					T float64 `json:"t"`
				}
				if err := json.Unmarshal([]byte(line[len("alarm "):]), &ev); err != nil {
					respErrs = append(respErrs, fmt.Sprintf("alarm line %q: %v", line, err))
					continue
				}
				alarms = append(alarms, alarmLine{ev.T, at})
			case strings.HasPrefix(line, "done"):
				samples = len(s.samples) // the sink accounts for everything it was sent
				if mode == toDaemon {
					samples = doneSamples(line)
				}
				return
			default:
				respErrs = append(respErrs, line)
			}
		}
	}()

	st := tr.begin("server.stream", parent, id)
	lo := 0
	for i, hi := range cuts {
		writeAt[i] = time.Now()
		if _, err := conn.Write(body[lo:hi]); err != nil {
			out.errs = append(out.errs, fmt.Sprintf("write: %v", err))
			break
		}
		lo = hi
	}
	conn.(*net.TCPConn).CloseWrite()
	tr.end(st)

	dw := tr.begin("server.await_done", parent, id)
	<-readDone
	tr.end(dw)

	out.samples = samples
	out.errs = append(out.errs, respErrs...)
	for _, a := range alarms {
		out.alarms = append(out.alarms, a.t)
		out.lagsMs = append(out.lagsMs, float64(a.at.Sub(writeAt[s.flushOf(a.t)]))/1e6)
	}
	return out
}

// doneSamples parses samples= from a done line, -1 when absent.
func doneSamples(line string) int {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "samples="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
	}
	return -1
}

// wirePass is the outcome of running sessions for a while.
type wirePass struct {
	sessions, failed int
	samples          int64
	elapsed          time.Duration
	sessionMs        []float64
	lagMs            []float64
	failures         []string
	// doneAt and doneSamples record each session's completion, for slicing
	// the pass into equal time windows.
	doneAt      []time.Duration
	doneSamples []int
}

// passSlices is how many equal time windows sliceThroughput splits a pass
// into.
const passSlices = 10

// sliceThroughput is the median over passSlices equal windows of the pass
// of the samples accounted by sessions finishing in the window, in million
// per second. The median keeps a burst of interference from other tenants
// of the host, shorter than half the pass, out of the figure.
func (p wirePass) sliceThroughput() float64 {
	rates := make([]float64, passSlices)
	width := p.elapsed / passSlices
	if width <= 0 {
		return math.NaN() // no session finished; run rejects a NaN metric
	}
	for i, at := range p.doneAt {
		rates[min(int(at/width), passSlices-1)] += float64(p.doneSamples[i])
	}
	for k := range rates {
		rates[k] /= width.Seconds() * 1e6
	}
	return median(rates)
}

// nsPerSample is wall nanoseconds per accounted sample.
func (p wirePass) nsPerSample() float64 {
	return float64(p.elapsed.Nanoseconds()) / float64(p.samples)
}

// runWirePass runs back-to-back sessions on wireConns concurrent
// connections (a closed loop: a connection starts its next session only
// after the previous one's done line) until dur has passed. Connection c
// walks the pool from offset c·len/wireConns; the VM name pairs the
// connection with the pool slot, so a name is reused only a full pool cycle
// later, long after its previous session closed.
func runWirePass(addr string, pool []*wireSession, binary bool, mode sinkMode, dur time.Duration, tr *tracer, round int) wirePass {
	var (
		mu   sync.Mutex
		pass wirePass
		wg   sync.WaitGroup
		last time.Time
	)
	start := time.Now()
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < dur; k++ {
				slot := (c*len(pool)/wireConns + k) % len(pool)
				s := pool[slot]
				id := int64(round)<<32 | int64(c)<<24 | int64(k)
				root := tr.begin("wire.session", -1, id)
				out := runSession(addr, fmt.Sprintf("r%d-c%d-s%03d", round, c, slot), s, binary, mode, tr, root, id)
				tr.end(root)
				err := out.verify(s, mode)
				mu.Lock()
				pass.sessions++
				if out.samples > 0 {
					pass.samples += int64(out.samples)
				}
				pass.sessionMs = append(pass.sessionMs, float64(out.elapsed)/1e6)
				pass.lagMs = append(pass.lagMs, out.lagsMs...)
				if err != nil {
					pass.failed++
					if len(pass.failures) < 5 {
						pass.failures = append(pass.failures, fmt.Sprintf("session %d (%s/%s): %v", s.idx, s.app, s.scheme, err))
					}
				}
				now := time.Now()
				if now.After(last) {
					last = now
				}
				pass.doneAt = append(pass.doneAt, now.Sub(start))
				pass.doneSamples = append(pass.doneSamples, max(out.samples, 0))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	pass.elapsed = last.Sub(start)
	return pass
}

// sink is the benchmark's read-and-discard loopback server: the transport
// floor under the same client and the same bytes.
type sink struct {
	l  net.Listener
	wg sync.WaitGroup
}

func startSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{l: l}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				c.(*net.TCPConn).SetReadBuffer(256 * 1024)
				buf := make([]byte, 256*1024)
				for {
					if _, err := c.Read(buf); err != nil {
						break
					}
				}
				io.WriteString(c, "done\n")
			}()
		}
	}()
	return s, nil
}

func (s *sink) addr() string { return s.l.Addr().String() }

// close stops accepting and waits for every connection handler.
func (s *sink) close() {
	s.l.Close()
	s.wg.Wait()
}

// selfPeakRSS is the benchmark process's own peak resident set size.
func selfPeakRSS() (float64, error) { return peakRSSMiB("self") }
