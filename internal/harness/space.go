package harness

import (
	"fmt"
	"strings"

	"mirror/internal/engine"
)

// SpaceRow is one engine's memory account for a structure.
type SpaceRow struct {
	Engine      string
	BytesPerKey float64
	Replicas    int
}

// SpaceReport measures the live memory footprint per key for a structure
// under every engine — quantifying §6.2.5's observation that Mirror's two
// replicas double consumption (and the sequence words add more on top).
type SpaceReport struct {
	Structure string
	Keys      int
	Rows      []SpaceRow
}

// Format renders the report as aligned text.
func (r *SpaceReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "space: %s with %d keys (live bytes per key)\n", r.Structure, r.Keys)
	fmt.Fprintf(&b, "%-14s%14s%10s\n", "engine", "bytes/key", "replicas")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s%14.1f%10d\n", row.Engine, row.BytesPerKey, row.Replicas)
	}
	return b.String()
}

// MeasureSpace builds the structure under each engine, inserts keys
// 1..keys, and reports the live footprint.
func MeasureSpace(structure string, keys int) *SpaceReport {
	rep := &SpaceReport{Structure: structure, Keys: keys}
	for _, kind := range engine.Kinds() {
		e := engine.New(engine.Config{
			Kind:  kind,
			Words: deviceWords(structure, kind, keys*2),
		})
		c := e.NewCtx()
		set := newSet(structure, e, c, keys)
		base, _ := e.Footprint() // sentinels, bucket arrays
		for k := 1; k <= keys; k++ {
			set.Insert(c, uint64(k), uint64(k))
		}
		words, replicas := e.Footprint()
		perKey := float64(words-base) * 8 * float64(replicas) / float64(keys)
		rep.Rows = append(rep.Rows, SpaceRow{
			Engine:      kind.String(),
			BytesPerKey: perKey,
			Replicas:    replicas,
		})
	}
	return rep
}
