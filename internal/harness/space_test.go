package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mirror/internal/engine"
)

// spaceRow is one engine's memory account for a structure.
type spaceRow struct {
	Engine      string
	BytesPerKey float64
	Replicas    int
}

// spaceReport is the live memory footprint per key of one structure under
// every engine: §6.2.5's observation that Mirror's two replicas double
// consumption, and what its cells add on top.
type spaceReport struct {
	Structure string
	Keys      int
	Rows      []spaceRow
}

// Format renders the report as aligned text.
func (r *spaceReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "space: %s with %d keys (live bytes per key)\n", r.Structure, r.Keys)
	fmt.Fprintf(&b, "%-14s%14s%10s\n", "engine", "bytes/key", "replicas")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s%14.1f%10d\n", row.Engine, row.BytesPerKey, row.Replicas)
	}
	return b.String()
}

// measureSpace builds the structure under each engine, inserts keys
// 1..keys, and reports the live footprint, both replicas counted. The
// footprint does not depend on the insertion order, so the keys go in the
// order that keeps each insert's walk short: descending onto the sorted
// list's head, shuffled into the BST (in order, it degenerates to a list).
func measureSpace(structure string, keys int) *spaceReport {
	rep := &spaceReport{Structure: structure, Keys: keys}
	order := rand.New(rand.NewSource(1)).Perm(keys)
	if structure == StList {
		for i := range order {
			order[i] = keys - 1 - i
		}
	}
	for _, kind := range engine.Kinds() {
		e := engine.New(engine.Config{
			Kind:  kind,
			Words: deviceWords(structure, kind, keys*2),
		})
		c := e.NewCtx()
		set := newSet(structure, e, c, keys)
		base, _ := e.Footprint() // sentinels, bucket arrays
		for _, k := range order {
			set.Insert(c, uint64(k+1), uint64(k+1))
		}
		words, replicas := e.Footprint()
		perKey := float64(words-base) * 8 * float64(replicas) / float64(keys)
		rep.Rows = append(rep.Rows, spaceRow{
			Engine:      kind.String(),
			BytesPerKey: perKey,
			Replicas:    replicas,
		})
	}
	return rep
}

// spaceClaim is §6.2.5 over the 10 000-key account of every set.
var spaceClaim = claim{
	name:  "space",
	paper: "Mirror's two replicas double the memory consumption (§6.2.5)",
	differs: "Mirror takes more than double on the BST and the skip list: a cell is two " +
		"words where the originals' field is one, and the BST node's two cells and two plain words " +
		"round up to the 8-word class. The paper's cache-aligned nodes hide this in padding.",
}

// TestMeasureSpace measures every set's footprint at 10 000 keys under
// every engine, pins it to testdata/space.golden, and asserts §6.2.5 on it:
// Mirror (either placement) holds two replicas, every engine without a
// volatile replica holds the originals' footprint, and Mirror's is at
// least twice theirs. The table renders into EXPERIMENTS.md's space block.
func TestMeasureSpace(t *testing.T) {
	var golden strings.Builder
	v := &verdict{t: t, c: spaceClaim}
	var table strings.Builder
	table.WriteString("| set |")
	for _, k := range engine.Kinds() {
		fmt.Fprintf(&table, " %s |", k)
	}
	table.WriteString(" Mirror / OrigDRAM |\n|---|")
	table.WriteString(strings.Repeat("---|", len(engine.Kinds())+1) + "\n")
	for _, st := range []string{StList, StHash, StBST, StSkipList} {
		rep := measureSpace(st, 10000)
		golden.WriteString(rep.Format())
		bpk := make(map[string]float64)
		fmt.Fprintf(&table, "| %s |", st)
		for _, r := range rep.Rows {
			bpk[r.Engine] = r.BytesPerKey
			fmt.Fprintf(&table, " %.1f |", r.BytesPerKey)
			want := 1
			if r.Engine == "Mirror" || r.Engine == "MirrorNVMM" {
				want = 2
			}
			if r.Replicas != want {
				v.fail("%s/%s: %d replicas, want %d", st, r.Engine, r.Replicas, want)
			}
		}
		orig, mirror := bpk["OrigDRAM"], bpk["Mirror"]
		fmt.Fprintf(&table, " %.2f× |\n", mirror/orig)
		for _, e := range []string{"OrigNVMM", "Izraelevitz", "NVTraverse"} {
			if bpk[e] != orig {
				v.fail("%s: %s %.1f B/key, OrigDRAM %.1f", st, e, bpk[e], orig)
			}
		}
		if bpk["MirrorNVMM"] != mirror {
			v.fail("%s: MirrorNVMM %.1f B/key, Mirror %.1f", st, bpk["MirrorNVMM"], mirror)
		}
		if !(mirror >= 2*orig) {
			v.fail("%s: Mirror %.1f B/key is not double OrigDRAM's %.1f", st, mirror, orig)
		}
	}
	v.say("every engine without a volatile replica holds OrigDRAM's footprint, MirrorNVMM holds Mirror's, " +
		"and Mirror holds at least twice OrigDRAM's on every set")
	checkGolden(t, "space.golden", []byte(golden.String()))
	checkDoc(t, map[string]string{"space": table.String() + "\n" + v.render()})
}
