package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memdos/sds/internal/pcm"
)

// testSession is a small hand-built pool session with one reference alarm.
func testSession(t *testing.T) *wireSession {
	t.Helper()
	s := &wireSession{app: "kmeans", scheme: "sds", refAlarms: []float64{0.05}}
	for i := 0; i < 10; i++ {
		s.samples = append(s.samples, pcm.Sample{T: float64(i+1) * 0.01, Access: 1e5, Miss: 1e4})
	}
	s.flushEnd = []int{3, 4, 10}
	if err := s.encode(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeDaemon speaks enough of the sds/1 protocol for the client: ok line,
// read the stream to its end, then the given alarm times and a done line
// accounting for done samples.
func fakeDaemon(t *testing.T, alarms []float64, done int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		l.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				hs, err := br.ReadString('\n')
				if err != nil {
					return
				}
				suffix := ""
				if strings.Contains(hs, "frames=bin") {
					suffix = " frames=bin"
				}
				fmt.Fprintf(c, "ok vm=x app=kmeans scheme=sds profile=90%s\n", suffix)
				io.Copy(io.Discard, br)
				for _, a := range alarms {
					fmt.Fprintf(c, "alarm {\"t\":%v,\"detector\":\"SDS\",\"metric\":\"access\",\"reason\":\"r\"}\n", a)
				}
				fmt.Fprintf(c, "done vm=x samples=%d monitored=0 dropped=0 alarms=%d\n", done, len(alarms))
			}()
		}
	}()
	return l.Addr().String()
}

func TestFailureCounting(t *testing.T) {
	s := testSession(t)
	cases := []struct {
		name   string
		alarms []float64
		done   int
		failed bool
	}{
		{"exact", []float64{0.05}, 10, false},
		{"one lost sample", []float64{0.05}, 9, true},
		{"differing alarm", []float64{0.06}, 10, true},
		{"missing alarm", nil, 10, true},
		{"extra alarm", []float64{0.05, 0.09}, 10, true},
	}
	for _, c := range cases {
		for _, binary := range []bool{true, false} {
			addr := fakeDaemon(t, c.alarms, c.done)
			pass := runWirePass(addr, []*wireSession{s}, binary, toDaemon, 20*time.Millisecond, nil, 0)
			if pass.sessions == 0 {
				t.Fatalf("%s: no session ran", c.name)
			}
			want := 0
			if c.failed {
				want = pass.sessions
			}
			if pass.failed != want {
				t.Errorf("%s (binary=%v): %d of %d sessions failed, want %d; %v",
					c.name, binary, pass.failed, pass.sessions, want, pass.failures)
			}
		}
	}
}

func TestAlarmLagUsesTheFlushCarryingTheSample(t *testing.T) {
	s := testSession(t)
	for _, c := range []struct {
		t    float64
		want int
	}{{0.01, 0}, {0.03, 0}, {0.04, 1}, {0.05, 2}, {0.1, 2}} {
		if got := s.flushOf(c.t); got != c.want {
			t.Errorf("flushOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}
