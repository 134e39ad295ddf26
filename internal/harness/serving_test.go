package harness

import (
	"testing"
	"time"

	"mirror/internal/engine"
)

// servingOpts keeps serving test sessions short and deterministic.
func servingOpts() Options {
	return Options{Duration: 60 * time.Millisecond, Seed: 7}
}

func servingCfg() ServingConfig {
	return ServingConfig{KeyRange: 512, Workers: 1}
}

// TestServingSession drives YCSB-A through the wire against an in-process
// Mirror server and checks the measured point is internally consistent:
// operations completed, a full ordered percentile set, and server-side
// counters that account for the load.
func TestServingSession(t *testing.T) {
	p, err := RunServingSession(servingOpts(), servingCfg(), engine.MirrorDRAM, 'A', 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if p.Engine != "Mirror" || p.Workload != "YCSB-A" || p.Conns != 2 || !p.Batch {
		t.Fatalf("point metadata wrong: %+v", p)
	}
	if p.P50NS == 0 || p.P50NS > p.P99NS || p.P99NS > p.P999NS || p.P999NS > p.MaxNS {
		t.Fatalf("percentiles broken: p50=%d p99=%d p999=%d max=%d", p.P50NS, p.P99NS, p.P999NS, p.MaxNS)
	}
	if p.Mutations == 0 {
		t.Fatal("YCSB-A ran no mutations")
	}
	if p.Fences == 0 {
		t.Fatal("a durable serving session must fence")
	}
	if p.FencesPerMutation <= 0 {
		t.Fatalf("fences/mutation %g", p.FencesPerMutation)
	}
}

// TestServingWorkloadLetters rejects unknown workloads and accepts
// lowercase letters.
func TestServingWorkloadLetters(t *testing.T) {
	if _, err := RunServingLoad(ServingSpec{Workload: 'Z', Conns: 1, KeyRange: 64}); err == nil {
		t.Fatal("workload Z accepted")
	}
	p, err := RunServingSession(servingOpts(), servingCfg(), engine.MirrorDRAM, 'c', 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workload != "YCSB-C" {
		t.Fatalf("lowercase letter not normalized: %q", p.Workload)
	}
	// Read-only workload: no mutations, so the ratio field must stay zero
	// rather than dividing by zero.
	if p.Mutations != 0 || p.FencesPerMutation != 0 {
		t.Fatalf("read-only session mutated: %+v", p)
	}
}

// TestServingReportRoundtrip appends a minimal serving ablation to a
// report, marshals it, and re-parses it through the same validation path
// CI applies to committed BENCH files; then breaks a percentile invariant
// and checks validation rejects it.
func TestServingReportRoundtrip(t *testing.T) {
	r := &BenchReport{Schema: BenchSchema}
	sc := servingCfg()
	sc.Conns = []int{1}
	sc.Workloads = []byte{'A'}
	sc.Kinds = []engine.Kind{engine.MirrorDRAM}
	if err := AppendServingAblation(r, servingOpts(), sc); err != nil {
		t.Fatal(err)
	}
	if len(r.Serving) != 2 {
		t.Fatalf("want batch on/off pair, got %d points", len(r.Serving))
	}
	if !r.Serving[0].Batch || r.Serving[1].Batch {
		t.Fatalf("ablation order wrong: %+v", r.Serving)
	}
	if r.Options.ServingWorkloads != "A" || len(r.Options.ServingConns) != 1 {
		t.Fatalf("options not recorded: %+v", r.Options)
	}
	data, err := MarshalReport(r)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Serving) != 2 || rr.Serving[0].P50NS != r.Serving[0].P50NS {
		t.Fatalf("roundtrip lost serving points: %+v", rr.Serving)
	}

	rr.Serving[0].P99NS = rr.Serving[0].P50NS / 2
	if err := rr.Validate(); err == nil {
		t.Fatal("out-of-order percentiles validated")
	}
	rr.Serving[0].P99NS = 0
	rr.Serving[0].P50NS = 0
	if err := rr.Validate(); err == nil {
		t.Fatal("measured point without percentiles validated")
	}
}

// TestServingPipelinedSession drives YCSB-A at pipeline depth 4 and checks
// the point records the depth, completes more operations than it could
// synchronously lose, and keeps the percentile invariants.
func TestServingPipelinedSession(t *testing.T) {
	p, err := RunServingSession(servingOpts(), servingCfg(), engine.MirrorDRAM, 'A', 1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pipeline != 4 {
		t.Fatalf("pipeline not recorded: %+v", p)
	}
	if p.Ops == 0 || p.Mutations == 0 {
		t.Fatalf("pipelined session idle: %+v", p)
	}
	if p.P50NS == 0 || p.P50NS > p.P99NS || p.P99NS > p.P999NS || p.P999NS > p.MaxNS {
		t.Fatalf("percentiles broken: %+v", p)
	}
}

// TestServingScanSession drives YCSB-E over native SCAN frames and checks
// the server counted them.
func TestServingScanSession(t *testing.T) {
	p, err := RunServingSession(servingOpts(), servingCfg(), engine.MirrorDRAM, 'E', 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if p.Scans == 0 {
		t.Fatal("YCSB-E served no SCAN frames")
	}
}

// TestServingRMWSession drives YCSB-F and checks RMW frames mutate.
func TestServingRMWSession(t *testing.T) {
	p, err := RunServingSession(servingOpts(), servingCfg(), engine.MirrorDRAM, 'F', 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops == 0 || p.Mutations == 0 {
		t.Fatalf("YCSB-F ran no RMW mutations: %+v", p)
	}
}
