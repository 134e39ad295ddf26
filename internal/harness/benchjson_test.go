package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mirror/internal/engine"
)

// TestBenchMatrixJSON runs a tiny matrix and round-trips it through the
// JSON format: marshal, parse, validate, and spot-check the points.
func TestBenchMatrixJSON(t *testing.T) {
	o := Options{
		Duration: 10 * time.Millisecond,
		Scale:    4096,
		Seed:     1,
	}
	kinds := []engine.Kind{engine.OrigDRAM, engine.MirrorDRAM}
	r := RunBenchMatrix(o, []string{StHash}, kinds, []int{1, 2})
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if want := 1 * len(kinds) * 2; len(r.Points) != want {
		t.Fatalf("points = %d, want %d", len(r.Points), want)
	}
	data, err := MarshalReport(r)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	if len(back.Points) != len(r.Points) || back.Schema != BenchSchema {
		t.Fatalf("round trip lost data: %d points schema %q", len(back.Points), back.Schema)
	}
	for _, p := range back.Points {
		if p.Ops == 0 {
			t.Errorf("%s/%s/t%d: zero ops", p.Structure, p.Engine, p.Threads)
		}
		switch p.Engine {
		case "Mirror":
			if p.Flushes == 0 || p.Fences == 0 {
				t.Errorf("Mirror point has no persistence instructions (flushes=%d fences=%d)", p.Flushes, p.Fences)
			}
			if p.Modeled.NS == 0 || p.Modeled.NVMMStores == 0 {
				t.Errorf("Mirror point has no counted pass: %+v", p.Modeled)
			}
		case "OrigDRAM":
			if p.Flushes != 0 || p.Fences != 0 {
				t.Errorf("OrigDRAM point should issue no persistence instructions (flushes=%d fences=%d)", p.Flushes, p.Fences)
			}
			if p.Modeled.NS == 0 || p.Modeled.NVMMLoads != 0 {
				t.Errorf("OrigDRAM counted pass should be priced and touch no NVMM: %+v", p.Modeled)
			}
		}
	}
}

// TestParseReportRejectsGarbage checks the validator actually gates.
func TestParseReportRejectsGarbage(t *testing.T) {
	if _, err := ParseReport([]byte(`{`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := ParseReport([]byte(`{"schema":"other/1","points":[]}`)); err == nil {
		t.Error("wrong schema should fail")
	}
	if _, err := ParseReport([]byte(`{"schema":"mirror-bench/1","points":[]}`)); err == nil {
		t.Error("empty points should fail")
	}
	bad := `{"schema":"mirror-bench/1","points":[],"recovery":[{"engine":"Mirror","keys":10,"parallelism":0,"elapsed_ns":5,"keys_per_ms":1}]}`
	if _, err := ParseReport([]byte(bad)); err == nil {
		t.Error("zero recovery parallelism should fail")
	}
}

// TestRecoveryJSONRoundTrip serializes a recovery sweep into the report's
// recovery section and round-trips it through the validator.
func TestRecoveryJSONRoundTrip(t *testing.T) {
	rep := MeasureRecovery([]int{500}, []int{1, 2})
	r := &BenchReport{
		Schema:   BenchSchema,
		Recovery: RecoveryPoints(rep),
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if want := len(rep.Rows); len(r.Recovery) != want {
		t.Fatalf("recovery points = %d, want %d", len(r.Recovery), want)
	}
	data, err := MarshalReport(r)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	for i, p := range back.Recovery {
		if p != r.Recovery[i] {
			t.Fatalf("recovery point %d changed in round trip: %+v != %+v", i, p, r.Recovery[i])
		}
	}
}

// TestCommittedReportsParse re-parses every committed BENCH_<n>.json
// through the same validation mirrorbench -checkjson applies.
func TestCommittedReportsParse(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseReport(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}
