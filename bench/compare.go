package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// runSet is one side of a comparison: the timed runs' values per
// (workload, metric), the failed share per workload, and the counted pass's
// values per (workload, seed, metric).
type runSet struct {
	timed   map[string]map[string][]float64
	failed  map[string][2]int64 // failed, attempted
	counted map[string]map[string]float64
}

func newRunSet(recs []record) *runSet {
	s := &runSet{
		timed:   map[string]map[string][]float64{},
		failed:  map[string][2]int64{},
		counted: map[string]map[string]float64{},
	}
	for _, r := range recs {
		fa := s.failed[r.Workload]
		s.failed[r.Workload] = [2]int64{fa[0] + r.Failed, fa[1] + r.Attempted}
		if r.Trace == 1 {
			key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
			s.counted[key] = map[string]float64{}
			for n, m := range r.Metrics {
				s.counted[key][n] = m.Value
			}
			continue
		}
		if s.timed[r.Workload] == nil {
			s.timed[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Metrics {
			s.timed[r.Workload][n] = append(s.timed[r.Workload][n], m.Value)
		}
	}
	return s
}

// countedTolerance says whether name is one of the counted pass's numbers
// that must repeat for a seed, and by how much two readings may differ and
// still be the same count; compare lists any that differ by more between the
// two files.
func countedTolerance(name string) (tol float64, counted bool) {
	switch name {
	case "engine.counted_fences_per_mutation", "engine.counted_flushes_per_mutation",
		"pmem.flushes_per_op", "pmem.fences_per_op":
		return 0, true
	case "server.go_allocs_per_op":
		// runtime.MemStats is process-wide: the runtime's own background
		// allocations (a handful over 50 000 requests) are in it, so it
		// repeats to three decimals, not exactly. One allocation more on
		// one request kind in four is 0.25.
		return 0.01, true
	}
	return 0, strings.HasPrefix(name, "engine.") && strings.HasSuffix(name, "_per_op") ||
		strings.HasPrefix(name, "engine.detect_") && strings.HasSuffix(name, "_per_mutation")
}

// compareFiles prints, per (end-to-end metric, workload), both medians, how
// much worse b is than a, the bound, and a verdict. It returns 1 if any pair
// is worse than its bound or b failed a larger share of its requests, and 3
// if only counted-pass numbers differ: that fails an A/A check, and in an
// A/B of a change that moves a count the list is the evidence.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	ra, err := readRecords(pathA)
	if err == nil {
		var rb []record
		if rb, err = readRecords(pathB); err == nil {
			return compareSets(spec, newRunSet(ra), newRunSet(rb), stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(spec *benchSpec, a, b *runSet, w io.Writer) int {
	worse, unresolved := 0, 0
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "median a", "median b", "b worse", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			va, vb := a.timed[wl.Name][d.Name], b.timed[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			delta := (mb - ma) / ma // how much worse b is, as a share of a
			if d.Better == "higher" {
				delta = -delta
			}
			spread := max(iqrShare(va), iqrShare(vb))
			verdict := "not-worse"
			switch {
			// Set-up time is judged on its medians alone: the contract
			// exempts its spread.
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
				unresolved++
			case delta > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %7.1f%%  %s (n=%d,%d)\n",
				wl.Name, d.Name, ma, mb, 100*delta, 100*d.Bound, 100*spread, verdict, len(va), len(vb))
		}
		fa, fb := a.failed[wl.Name], b.failed[wl.Name]
		if fa[1] > 0 && fb[1] > 0 {
			sa, sb := float64(fa[0])/float64(fa[1]), float64(fb[0])/float64(fb[1])
			verdict := "not-worse"
			if sb > sa {
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-22s %12.6f %12.6f %38s\n", wl.Name, "failed_share", sa, sb, verdict)
		}
	}
	differ := 0
	for _, key := range sortedKeys(a.counted) {
		mb, ok := b.counted[key]
		if !ok {
			continue
		}
		for _, n := range sortedKeys(a.counted[key]) {
			va := a.counted[key][n]
			if tol, counted := countedTolerance(n); counted && math.Abs(va-mb[n]) > tol {
				fmt.Fprintf(w, "counted pass differs: %s %s: %v vs %v\n", key, n, va, mb[n])
				differ++
			}
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved, %d counted-pass numbers differ\n", worse, unresolved, differ)
	switch {
	case worse > 0:
		return 1
	case differ > 0:
		return 3
	}
	return 0
}
