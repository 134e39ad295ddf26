//go:build !race

// The claims test is one exact count on one goroutine per panel: there is
// nothing in it for the race detector to find, and under -race it takes
// minutes. TestModeledRepeats keeps the panels' shared-nothing property in
// the race build.

package harness

import (
	"strings"
	"testing"
)

// paperOptions is the scale and seed EXPERIMENTS.md quotes.
var paperOptions = Options{Scale: 128, Seed: 1}

// TestPaperClaims prices every panel of Figures 6 and 7 with its counted
// pass, pins the tables to testdata/panels.golden, and asserts the paper's
// claims 1–6 on them. Each claim renders what it asserted into its block
// of EXPERIMENTS.md, which must match. A change that means to move a cell
// regenerates both with
//
//	go test ./internal/harness -run TestPaperClaims -update
//
// and owns the diff; a verdict that flips fails here first.
func TestPaperClaims(t *testing.T) {
	panels := Panels()
	tabs := make([]*Table, len(panels))
	t.Run("panels", func(t *testing.T) {
		for i, p := range panels {
			t.Run(p.ID, func(t *testing.T) {
				t.Parallel()
				tabs[i] = p.Run(paperOptions)
			})
		}
	})
	if t.Failed() {
		return
	}
	tables := make(map[string]*Table)
	var golden []string
	for _, tab := range tabs {
		tables[tab.PanelID] = tab
		golden = append(golden, tab.Format())
	}
	checkGolden(t, "panels.golden", []byte(strings.Join(golden, "\n")))

	blocks := make(map[string]string)
	for _, c := range paperClaims {
		t.Run(strings.ReplaceAll(c.name, " ", ""), func(t *testing.T) {
			v := &verdict{t: t, c: c, tables: tables}
			c.check(v)
			blocks[c.name] = v.render()
		})
	}
	checkDoc(t, blocks)
}

// The panels each claim ranges over.
var (
	fig6Transformations = []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
		"fig6g", "fig6h", "fig6i", "fig6j", "fig6k", "fig6l", "fig6o"}
	fig6Sets = []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6o"}
	fig7     = []string{"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f",
		"fig7g", "fig7h", "fig7i", "fig7j", "fig7k", "fig7l"}
)

var paperClaims = []claim{
	{
		name: "claim 1",
		paper: "Mirror outperforms NVTraverse by 2.88–8.7× on the 128-key list and by ~1.8–2.5× " +
			"on the large hash table and trees; NVTraverse in turn beats Izraelevitz by large factors (up to 29×) (§6.2.1)",
		differs: "NVTraverse beats Izraelevitz by the factors above, not by up to 29×: real fences " +
			"pile up across 16 cores, and the cost table charges every fence 100 ns, once.",
		check: func(v *verdict) {
			for _, id := range []string{"fig6a", "fig6d", "fig6g", "fig6j"} {
				v.factor(id, 1, "NVTraverse", "Mirror", 1.8)
			}
			for _, id := range []string{"fig6a", "fig6d", "fig6g", "fig6j"} {
				v.factor(id, 1, "Izraelevitz", "NVTraverse", 2.5)
			}
			v.ordered(fig6Transformations, "Mirror", "NVTraverse", "Izraelevitz")
			for _, id := range []string{"fig6a", "fig6d", "fig6g", "fig6j"} {
				v.fewerLoads(id, 1, "Mirror", "NVTraverse", 10)
			}
		},
	},
	{
		name: "claim 2",
		paper: "at 0% updates Mirror matches OrigDRAM (both read only DRAM); the gap grows " +
			"with update percentage as writes also go to NVMM (§6.2.3, §6.2.6)",
		check: func(v *verdict) {
			for _, id := range []string{"fig6c", "fig6f", "fig6i", "fig6l"} {
				v.equal(id, 0, "Mirror", "OrigDRAM")
			}
			for _, id := range []string{"fig6c", "fig6f", "fig6i", "fig6l"} {
				v.grows(id, "Mirror", "OrigDRAM")
			}
		},
	},
	{
		name: "claim 3",
		paper: "Mirror ≈ Link-Free at low thread counts, ahead under read-heavy loads (its reads " +
			"hit DRAM, theirs NVMM); Link-Free/SOFT win only at 32M nodes with ≥50% updates (§6.2.4)",
		differs: "Link-Free and SOFT never overtake Mirror, not even at 100 % updates on the " +
			"largest hash table (fig6o, 1/128 of the paper's 32M nodes).",
		check: func(v *verdict) {
			for _, id := range []string{"fig6a", "fig6d"} {
				v.cheaper(id, 1, "Mirror", "LinkFree")
				v.cheaper(id, 1, "Mirror", "SOFT")
			}
			v.cheaper("fig6o", 100, "Mirror", "LinkFree")
			v.cheaper("fig6f", 0, "OrigNVMM", "LinkFree")
			v.ordered(fig6Sets, "Mirror", "LinkFree")
			v.ordered(fig6Sets, "Mirror", "SOFT")
		},
	},
	{
		name:  "claim 4",
		paper: "Mirror beats the lock-based Cmap by 2.85–3.65× over threads and 1.67–3.95× over update rates (§6.2.7)",
		differs: "Mirror is ahead at 80 % reads and up to 50 % updates, by less than the paper's " +
			"factors, and Cmap is ahead at 100 % updates.",
		check: func(v *verdict) {
			v.cheaper("fig6m", 1, "Mirror", "Cmap")
			for _, x := range []int{0, 10, 20, 50} {
				v.cheaper("fig6n", x, "Mirror", "Cmap")
			}
			v.cheaper("fig6n", 100, "Cmap", "Mirror")
		},
	},
	{
		name: "claim 5",
		paper: "with both replicas on NVMM and ≤10% updates MirrorNVMM is comparable to NVTraverse; " +
			"above ~20% updates NVTraverse wins; the hand-made sets lead overall (§6.3)",
		check: func(v *verdict) {
			v.within("fig7a", 1, 0.05, "MirrorNVMM", "NVTraverse", "LinkFree", "SOFT", "OrigNVMM")
			for _, id := range []string{"fig7c", "fig7f", "fig7i", "fig7l"} {
				for _, x := range []int{0, 10, 20} {
					v.cheaper(id, x, "MirrorNVMM", "NVTraverse")
				}
			}
			v.cheaper("fig7c", 50, "MirrorNVMM", "NVTraverse")
			for _, id := range []string{"fig7f", "fig7i", "fig7l"} {
				v.cheaper(id, 50, "NVTraverse", "MirrorNVMM")
			}
			for _, id := range []string{"fig7c", "fig7f", "fig7i", "fig7l"} {
				v.cheaper(id, 100, "NVTraverse", "MirrorNVMM")
			}
			v.cheaper("fig7f", 0, "MirrorNVMM", "LinkFree")
			for _, x := range []int{10, 20, 50, 100} {
				v.cheaper("fig7f", x, "LinkFree", "MirrorNVMM")
			}
			v.dearest(fig7, "Izraelevitz")
		},
	},
	{
		name:  "claim 6",
		paper: "the Mirror/NVTraverse gap is 3.6–1.25× on 256–2048 keys, shrinking as traversals dominate (§6.2.2)",
		differs: "the gap does not shrink; it grows toward the cost table's NVMM/DRAM load ratio, " +
			"60 / 20 ns, as the list grows and both costs become traversal loads. On real hardware a long " +
			"traversal is bound by cache misses and memory-level parallelism, which DRAM and Optane reads share.",
		check: func(v *verdict) {
			v.grows("fig6b", "NVTraverse", "Mirror")
			v.factor("fig6b", 8192, "NVTraverse", "Mirror", 2.99)
		},
	},
}
