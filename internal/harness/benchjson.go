package harness

// This file produces the machine-readable benchmark trajectory of the
// repository: a BenchReport is the full engine × structure × thread-count
// throughput matrix together with the persistence-instruction counters, the
// Mirror protocol's help/retry statistics and the counted pass (Modeled) for
// each point. cmd/mirrorbench writes one as BENCH_<n>.json; CI re-parses the
// committed file so the format cannot rot.

import (
	"encoding/json"
	"fmt"
	"runtime"

	"mirror/internal/engine"
	"mirror/internal/workload"
)

// BenchSchema identifies the report format; bump it on breaking changes.
const BenchSchema = "mirror-bench/1"

// BenchPoint is one measured cell of the matrix.
type BenchPoint struct {
	Structure string  `json:"structure"`
	Engine    string  `json:"engine"`
	Threads   int     `json:"threads"`
	KeyRange  int     `json:"key_range"`
	Mops      float64 `json:"mops"`
	Ops       uint64  `json:"ops"`

	// Flushes/Fences are the device persistence-instruction counts this
	// point added (pmem.Device.Counters deltas).
	Flushes uint64 `json:"flushes"`
	Fences  uint64 `json:"fences"`
	// Helps/Retries are the Mirror protocol statistics this point added
	// (patomic.Mem.Stats deltas); zero for engines without a help path.
	Helps   uint64 `json:"helps"`
	Retries uint64 `json:"retries"`

	// Elision statistics this point added (engine.Stats deltas): flushes
	// and fences skipped by the persisted-epoch watermark layer, fences
	// avoided by piggybacking on a concurrent fence's commit ticket, and
	// retire-gated installs deferred to the relaxed-line registry. All
	// zero when the matrix runs with elision disabled (-noelide).
	ElidedFlushes     uint64 `json:"elided_flushes"`
	ElidedFences      uint64 `json:"elided_fences"`
	PiggybackedFences uint64 `json:"piggybacked_fences"`
	RelaxedCAS        uint64 `json:"relaxed_cas"`

	// Detectability statistics this point added: operation-descriptor
	// announces and durably published verdicts. Zero (and omitted) unless
	// the matrix runs with detectable operations (-detect).
	DetectAnnounces uint64 `json:"detect_announces,omitempty"`
	DetectVerdicts  uint64 `json:"detect_verdicts,omitempty"`

	// Dist/Skew record a non-uniform key distribution (workload.Spec
	// semantics); omitted for the uniform default.
	Dist string  `json:"dist,omitempty"`
	Skew float64 `json:"skew,omitempty"`

	// Modeled is the structure/engine pair's counted pass, taken once
	// after prefill and shared by its thread points; absent from reports
	// written before it existed.
	Modeled
}

// BenchHost records where the report was measured.
type BenchHost struct {
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	CPUs    int    `json:"cpus"`
	Version string `json:"go_version"`
}

// BenchOptions records how the report was measured.
type BenchOptions struct {
	DurationMS int64 `json:"duration_ms"`
	Scale      int   `json:"scale"`
	Seed       int64 `json:"seed"`
	// NoElide records that the flush-elision layer was disabled (the
	// ablation baseline run).
	NoElide bool `json:"no_elide,omitempty"`
	// Detect records that every operation ran through a detectable bracket
	// (the descriptor-overhead ablation run).
	Detect bool `json:"detect,omitempty"`
	// Dist/Skew record a non-uniform key distribution applied to the whole
	// matrix (workload.Spec semantics); omitted for the uniform default.
	Dist string  `json:"dist,omitempty"`
	Skew float64 `json:"skew,omitempty"`
}

// RecoveryPoint is one recovery-pipeline measurement: how fast one engine
// rebuilds a hash table of Keys elements at the given pipeline parallelism
// (harness.MeasureRecovery row, serialized).
type RecoveryPoint struct {
	Engine      string  `json:"engine"`
	Keys        int     `json:"keys"`
	Parallelism int     `json:"parallelism"`
	ElapsedNS   int64   `json:"elapsed_ns"`
	KeysPerMS   float64 `json:"keys_per_ms"`
}

// BenchReport is the full matrix. BENCH_6 and BENCH_7 also carry a
// "serving" section and serving_* options, written by in-process serving
// panels that no longer exist; parsing ignores them.
type BenchReport struct {
	Schema  string       `json:"schema"`
	Host    BenchHost    `json:"host"`
	Options BenchOptions `json:"options"`
	Points  []BenchPoint `json:"points"`
	// Recovery holds the recovery-throughput sweep (engine × size ×
	// parallelism); present when mirrorbench ran with -recovery.
	Recovery []RecoveryPoint `json:"recovery,omitempty"`
}

// BenchStructures is the default structure axis of the matrix.
func BenchStructures() []string {
	return []string{StList, StHash, StBST, StSkipList}
}

// RunBenchMatrix measures every structure × engine × thread-count cell and
// returns the report. Each structure/engine pair is built and prefilled
// once and reused across the thread sweep, with counter deltas taken
// around each point.
func RunBenchMatrix(o Options, structs []string, kinds []engine.Kind, threads []int) *BenchReport {
	o.setDefaults()
	if len(structs) == 0 {
		structs = BenchStructures()
	}
	if len(kinds) == 0 {
		kinds = engine.Kinds()
	}
	if len(threads) == 0 {
		threads = o.Threads
	}
	// buildEngineTarget sizes the descriptor region from the widest point
	// of the sweep it will actually run.
	o.Threads = threads
	r := &BenchReport{
		Schema: BenchSchema,
		Host: BenchHost{
			GOOS:    runtime.GOOS,
			GOARCH:  runtime.GOARCH,
			CPUs:    runtime.NumCPU(),
			Version: runtime.Version(),
		},
		Options: BenchOptions{
			DurationMS: o.Duration.Milliseconds(),
			Scale:      o.Scale,
			Seed:       o.Seed,
			NoElide:    o.NoElide,
			Detect:     o.Detect,
			Dist:       o.Dist,
			Skew:       o.Skew,
		},
	}
	// One representative key range per structure: the paper's 8M sets
	// divided by the scale (harness default keeps this well above cache
	// sizes while fitting the simulated devices in host memory).
	keyRange := (8 << 20) / o.Scale
	if keyRange < 64 {
		keyRange = 64
	}
	for _, st := range structs {
		for _, kind := range kinds {
			target, e := buildEngineTarget(kind, st, o, keyRange)
			workload.PrefillHalf(target, uint64(keyRange), o.Seed)
			model := counted(target, e.Devices(), o.spec(keyRange, 1, workload.Mix801010))
			for _, th := range threads {
				fl0, fe0 := e.Counters()
				s0 := e.Stats()
				res := workload.Run(target, o.spec(keyRange, th, workload.Mix801010))
				fl1, fe1 := e.Counters()
				s1 := e.Stats()
				r.Points = append(r.Points, BenchPoint{
					Structure:         st,
					Engine:            kind.String(),
					Threads:           th,
					KeyRange:          keyRange,
					Mops:              res.MopsPerSec(),
					Ops:               res.Ops,
					Flushes:           fl1 - fl0,
					Fences:            fe1 - fe0,
					Helps:             s1.Helps - s0.Helps,
					Retries:           s1.Retries - s0.Retries,
					ElidedFlushes:     s1.ElidedFlushes - s0.ElidedFlushes,
					ElidedFences:      s1.ElidedFences - s0.ElidedFences,
					PiggybackedFences: s1.PiggybackedFences - s0.PiggybackedFences,
					RelaxedCAS:        s1.RelaxedCAS - s0.RelaxedCAS,
					DetectAnnounces:   s1.DetectAnnounces - s0.DetectAnnounces,
					DetectVerdicts:    s1.DetectVerdicts - s0.DetectVerdicts,
					Dist:              o.Dist,
					Skew:              o.Skew,
					Modeled:           model,
				})
			}
		}
	}
	return r
}

// Validate checks the report's internal consistency.
func (r *BenchReport) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, BenchSchema)
	}
	if len(r.Points) == 0 && len(r.Recovery) == 0 {
		return fmt.Errorf("report has no points")
	}
	for i, p := range r.Points {
		switch {
		case p.Structure == "":
			return fmt.Errorf("point %d: empty structure", i)
		case p.Engine == "":
			return fmt.Errorf("point %d: empty engine", i)
		case p.Threads <= 0:
			return fmt.Errorf("point %d: threads %d", i, p.Threads)
		case p.KeyRange <= 0:
			return fmt.Errorf("point %d: key range %d", i, p.KeyRange)
		case p.Mops < 0:
			return fmt.Errorf("point %d: negative throughput", i)
		}
	}
	for i, p := range r.Recovery {
		switch {
		case p.Engine == "":
			return fmt.Errorf("recovery point %d: empty engine", i)
		case p.Keys <= 0:
			return fmt.Errorf("recovery point %d: keys %d", i, p.Keys)
		case p.Parallelism <= 0:
			return fmt.Errorf("recovery point %d: parallelism %d", i, p.Parallelism)
		case p.ElapsedNS <= 0:
			return fmt.Errorf("recovery point %d: elapsed %d ns", i, p.ElapsedNS)
		case p.KeysPerMS <= 0:
			return fmt.Errorf("recovery point %d: keys/ms %g", i, p.KeysPerMS)
		}
	}
	return nil
}

// RecoveryPoints serializes a RecoveryReport into the report's recovery
// section.
func RecoveryPoints(rep *RecoveryReport) []RecoveryPoint {
	out := make([]RecoveryPoint, 0, len(rep.Rows))
	for _, row := range rep.Rows {
		out = append(out, RecoveryPoint{
			Engine:      row.Engine,
			Keys:        row.Keys,
			Parallelism: row.Parallelism,
			ElapsedNS:   row.Elapsed.Nanoseconds(),
			KeysPerMS:   row.KeysPerMS(),
		})
	}
	return out
}

// MarshalReport renders the report as indented JSON with a trailing
// newline, the exact bytes mirrorbench writes to BENCH_<n>.json.
func MarshalReport(r *BenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseReport unmarshals and validates a BENCH_<n>.json payload.
func ParseReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse bench report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("invalid bench report: %w", err)
	}
	return &r, nil
}
