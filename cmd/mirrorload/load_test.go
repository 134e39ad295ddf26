package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/server"
	"mirror/internal/structures"
)

// TestMain runs the command itself when the environment asks for it, so a
// test can check its exit status and messages on a fresh process.
func TestMain(m *testing.M) {
	if os.Getenv("MIRRORLOAD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// session serves an in-process Mirror server, prefills it through the wire
// and runs one short load session at the given YCSB letter, connection
// count and pipeline depth. It returns the load's result and the server's
// in-process counter deltas across the measured session, which the
// session's STATS deltas must match.
func session(t *testing.T, letter byte, conns, pipeline int) (servingLoad, server.Stats) {
	t.Helper()
	const keyRange, seed = 512, 7
	s, err := server.New(server.Config{Kind: engine.MirrorDRAM, Clients: conns + 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	if _, err := servingPrefill(addr, 0, keyRange, seed); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	load, err := runServingLoad(servingSpec{
		Addr:     addr,
		Workload: letter,
		Conns:    conns,
		BaseID:   1,
		KeyRange: keyRange,
		Duration: 60 * time.Millisecond,
		Seed:     seed,
		Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	// The session's own STATS deltas see every mutation, fence and flush
	// the in-process counters do.
	if load.Server.Mutations != st1.Mutations-st0.Mutations || load.Server.Fences != st1.Fences-st0.Fences ||
		load.Server.Flushes != st1.Flushes-st0.Flushes {
		t.Errorf("STATS deltas %+v disagree with the in-process ones from %+v to %+v", load.Server, st0, st1)
	}
	return load, server.Stats{
		Ops:       st1.Ops - st0.Ops,
		Mutations: st1.Mutations - st0.Mutations,
		Replays:   st1.Replays - st0.Replays,
		Scans:     st1.Scans - st0.Scans,
		Batches:   st1.Batches - st0.Batches,
		Flushes:   st1.Flushes - st0.Flushes,
		Fences:    st1.Fences - st0.Fences,
	}
}

// checkPercentiles fails unless the session measured operations and its
// histogram gives a full, ordered percentile set.
func checkPercentiles(t *testing.T, load servingLoad) {
	t.Helper()
	if load.Ops == 0 {
		t.Fatal("no operations completed")
	}
	p50, p99, p999, max := load.Hist.Percentile(50), load.Hist.Percentile(99), load.Hist.Percentile(99.9), load.Hist.Max()
	if p50 == 0 || p50 > p99 || p99 > p999 || p999 > max {
		t.Fatalf("percentiles broken: p50=%d p99=%d p999=%d max=%d", p50, p99, p999, max)
	}
}

// TestServingSession drives YCSB-A through the wire against an in-process
// Mirror server and checks the session is internally consistent:
// operations completed, a full ordered percentile set, and server-side
// counters that account for the load.
func TestServingSession(t *testing.T) {
	load, st := session(t, 'A', 2, 1)
	checkPercentiles(t, load)
	if st.Mutations == 0 {
		t.Fatal("YCSB-A ran no mutations")
	}
	if st.Fences == 0 {
		t.Fatal("a durable serving session must fence")
	}
}

// TestServingWorkloadLetters rejects unknown workloads and accepts
// lowercase letters.
func TestServingWorkloadLetters(t *testing.T) {
	if _, err := runServingLoad(servingSpec{Workload: 'Z', Conns: 1, KeyRange: 64}); err == nil {
		t.Fatal("workload Z accepted")
	}
	load, st := session(t, 'c', 1, 1)
	checkPercentiles(t, load)
	// Read-only workload: the server ran no mutation.
	if st.Mutations != 0 {
		t.Fatalf("read-only session mutated: %+v", st)
	}
}

// TestServingPipelinedSession drives YCSB-A at pipeline depth 4 and checks
// the session mutates and keeps the percentile invariants.
func TestServingPipelinedSession(t *testing.T) {
	load, st := session(t, 'A', 1, 4)
	checkPercentiles(t, load)
	if st.Mutations == 0 {
		t.Fatalf("pipelined session ran no mutations: %+v", st)
	}
}

// TestServingScanSession drives YCSB-E over native SCAN frames and checks
// the server counted them, at least one frame for every scan issued.
func TestServingScanSession(t *testing.T) {
	load, st := session(t, 'E', 1, 1)
	checkPercentiles(t, load)
	if st.Scans == 0 {
		t.Fatal("YCSB-E served no SCAN frames")
	}
	if load.Scans == 0 || load.framesPerScan() < 1 {
		t.Fatalf("%d SCAN frames for %d scans: every scan sends at least one", load.Server.Scans, load.Scans)
	}
}

// TestServingRMWSession drives YCSB-F and checks RMW frames mutate.
func TestServingRMWSession(t *testing.T) {
	load, st := session(t, 'F', 1, 1)
	checkPercentiles(t, load)
	if st.Mutations == 0 {
		t.Fatalf("YCSB-F ran no RMW mutations: %+v", st)
	}
}

// TestKeyRangeOutsideKeysRefused checks that a key range the served set
// cannot hold is refused with an error before anything dials, and that
// the command exits 2 with a message rather than a panic.
func TestKeyRangeOutsideKeysRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	for _, r := range []uint64{0, structures.KeyMax + 1} {
		if _, err := servingPrefill(addr, 0, r, 1); err == nil {
			t.Errorf("prefill accepted key range %d", r)
		}
		if _, err := runServingLoad(servingSpec{Addr: addr, Workload: 'A', Conns: 1, KeyRange: r, Duration: time.Millisecond}); err == nil {
			t.Errorf("load accepted key range %d", r)
		}

		cmd := exec.Command(os.Args[0], "-addr", addr, "-range", fmt.Sprint(r), "-duration", "1ms")
		cmd.Env = append(os.Environ(), "MIRRORLOAD_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("-range %d: exit %v, want status 2; output:\n%s", r, err, out)
		}
		if !strings.Contains(string(out), "outside [1,") || strings.Contains(string(out), "panic") {
			t.Errorf("-range %d: want an outside-range message and no panic, got:\n%s", r, out)
		}
	}
	// Nothing dialed: no connection waits to be accepted.
	ln.(*net.TCPListener).SetDeadline(time.Now())
	if cn, err := ln.Accept(); err == nil {
		cn.Close()
		t.Fatal("a refused key range still dialed the server")
	}
}
