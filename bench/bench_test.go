package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload's two passes at -short sizes and checks the
// benchmark's own contract: each pass emits exactly the metrics
// BENCHMARK.json names for it, with their units; names are well formed; the
// correctness checks, the shadow-equals-served count and the wrapper
// fidelity hold; and every trace file is a consistent span tree.
func TestSmoke(t *testing.T) {
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(t.TempDir(), "smoke.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-out", outFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -short exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	recs, err := readRecords(outFile)
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, r := range recs {
		pass := r.Workload + map[int]string{0: " timed", 1: " traced"}[r.Trace]
		seen[pass] = true
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", pass, r.Correct, r.Attempted, r.Failed)
		}
		defs := spec.EndToEnd
		if r.Trace == 1 {
			defs = spec.PerLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", pass, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is malformed", d.Name)
			case !ok:
				t.Errorf("%s: metric %s missing", pass, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", pass, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", pass, d.Name, m.Value)
			case r.Trace == 0 && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", pass, d.Name, m.Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		if !seen[w.Name+" timed"] || !seen[w.Name+" traced"] {
			t.Errorf("workload %s did not run both passes", w.Name)
		}
	}

	// lib-hash-a's sizes decide what it measures (it must stay inside one
	// core's L2), so the code, BENCHMARK.json, the README and the run agree.
	sizes := fmt.Sprintf("2^%d keys on a 2^%d-word device", bits.Len(libKeyRange)-1, bits.Len(libWords)-1)
	readme, err := os.ReadFile(filepath.Join(root, "bench", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), sizes) {
		t.Errorf("bench/README.md does not state lib-hash-a's sizes as %q", sizes)
	}
	for _, w := range spec.Workloads {
		if w.Name == "lib-hash-a" && !strings.Contains(w.Why, sizes) {
			t.Errorf("BENCHMARK.json does not state lib-hash-a's sizes as %q", sizes)
		}
	}
	for _, r := range recs {
		if r.Workload != "lib-hash-a" || r.Trace != 1 {
			continue
		}
		if mb := r.Metrics["recovery.media_mb"].Value; mb != libWords*8/float64(1<<20) {
			t.Errorf("lib-hash-a ran on a %v MiB device, the constants say %d words", mb, libWords)
		}
		if keys := r.Metrics["recovery.keys"].Value; keys < 0.4*libKeyRange || keys > 0.6*libKeyRange {
			t.Errorf("lib-hash-a held %v keys, want about half of %d", keys, libKeyRange)
		}
	}

	log := stdout.String()
	if n := strings.Count(log, "check shadow flush+fence totals = served 1-connection totals: ok"); n != 3 {
		t.Errorf("shadow-equals-served held on %d served workloads, want 3", n)
	}
	if n := strings.Count(log, "check wrapped structure totals = unwrapped totals: ok"); n != 4 {
		t.Errorf("wrapper fidelity held on %d workloads, want 4", n)
	}
	if strings.Contains(log, "FAILED") {
		t.Errorf("a check failed:\n%s", log)
	}

	for _, w := range []string{"serve-a-sync", "serve-a-pipe", "serve-e-scan", "lib-hash-a"} {
		checkTraceFile(t, filepath.Join(root, "bench", "out", w+".trace.json"))
	}
}

// checkTraceFile verifies the span tree: every non-root span has a parent
// of the same request that contains it, and per request the self times sum
// to the root span within 5 %.
func checkTraceFile(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tf.Spans) == 0 {
		t.Errorf("%s: no spans", path)
		return
	}
	byID := make(map[int32]span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	childSum := map[int32]int64{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) has no containing parent in its request", path, s.ID, s.Name)
			continue
		}
		childSum[s.Parent] += s.End - s.Start
	}
	selfByReq, rootByReq := map[int32]int64{}, map[int32]int64{}
	for _, s := range tf.Spans {
		selfByReq[s.Req] += s.End - s.Start - childSum[s.ID]
		if s.Parent < 0 {
			rootByReq[s.Req] = s.End - s.Start
		}
	}
	for req, rootDur := range rootByReq {
		if diff := math.Abs(float64(selfByReq[req] - rootDur)); diff > 0.05*float64(rootDur) {
			t.Errorf("%s: request %d self times sum to %d, root span is %d", path, req, selfByReq[req], rootDur)
		}
	}
}
