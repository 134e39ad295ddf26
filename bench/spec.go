package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. The file is the single place
// where names, units, directions and bounds live; the program reads it so
// that what it emits and what the contract names cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot walks up from dir to the directory holding BENCHMARK.json.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json in %s or above (pass -root)", dir)
		}
	}
}

// metric is one emitted value, in the output format the contract fixes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitter collects one pass's metrics against one class of definitions
// (end-to-end or per-layer). Emitting an unknown name or a name twice is an
// error, and so is finishing with a name neither emitted nor declared not
// applicable: a forgotten metric fails the run instead of reading as zero.
type emitter struct {
	defs    map[string]metricDef
	order   []string
	metrics map[string]metric
	notAppl map[string]bool
	errs    []string
}

func newEmitter(defs []metricDef) *emitter {
	em := &emitter{
		defs:    make(map[string]metricDef, len(defs)),
		metrics: make(map[string]metric, len(defs)),
		notAppl: make(map[string]bool),
	}
	for _, d := range defs {
		em.defs[d.Name] = d
		em.order = append(em.order, d.Name)
	}
	return em
}

func (em *emitter) emit(name string, v float64) {
	d, ok := em.defs[name]
	if !ok {
		em.errs = append(em.errs, "metric "+name+" is not in BENCHMARK.json")
		return
	}
	if _, dup := em.metrics[name]; dup {
		em.errs = append(em.errs, "metric "+name+" emitted twice")
		return
	}
	em.metrics[name] = metric{Value: v, Unit: d.Unit}
}

// na records metrics that have no meaning on this workload; they read 0.
func (em *emitter) na(names ...string) {
	for _, n := range names {
		em.emit(n, 0)
		em.notAppl[n] = true
	}
}

// naPrefix declares every not yet emitted metric of the given layers n/a.
func (em *emitter) naPrefix(prefixes ...string) {
	for _, n := range em.order {
		if _, done := em.metrics[n]; done {
			continue
		}
		for _, p := range prefixes {
			if len(n) > len(p) && n[:len(p)] == p && n[len(p)] == '.' {
				em.na(n)
				break
			}
		}
	}
}

func (em *emitter) finish() error {
	for _, n := range em.order {
		if _, ok := em.metrics[n]; !ok {
			em.errs = append(em.errs, "metric "+n+" was not emitted")
		}
	}
	if len(em.errs) > 0 {
		sort.Strings(em.errs)
		return fmt.Errorf("%d metric errors, first: %s", len(em.errs), em.errs[0])
	}
	return nil
}
