package harness

import (
	"fmt"
	"strings"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/workload"
)

// Options control a panel run.
type Options struct {
	// Scale divides the paper's 8M/32M structure sizes so the simulated
	// devices fit in host memory (positive; 128 keeps the structures far
	// larger than any cache).
	Scale int
	// Seed for the workload PRNGs.
	Seed int64
}

// Sweep axes.
const (
	SweepThreads = "threads"
	SweepSize    = "size"
	SweepUpdates = "updates"
)

// Panel is one figure panel of the paper's evaluation.
type Panel struct {
	ID        string // e.g. "fig6a"
	Title     string // the paper's caption fragment
	Structure string
	Sweep     string

	Mix        workload.Mix // for threads/size sweeps
	Sizes      []int        // key ranges (paper units) for size sweeps
	Scaled     bool         // divide sizes by Options.Scale
	FixedSize  int          // key range (paper units) for non-size sweeps
	UpdatePcts []int        // for update sweeps

	Competitors []Competitor
}

// Table is a panel's modeled output.
type Table struct {
	PanelID string
	Title   string
	XLabel  string
	Columns []string
	Rows    []TableRow
}

// TableRow is one sweep point.
type TableRow struct {
	X     int
	Model []Modeled // the counted pass per competitor
}

// Format renders the table as aligned text. It repeats exactly for a seed.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (modeled ns/op, counted pass of %d ops)\n", t.PanelID, t.Title, CountedOps)
	fmt.Fprintf(&b, "%-10s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10d", r.X)
		for _, m := range r.Model {
			fmt.Fprintf(&b, "%12.1f", m.NS)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (p Panel) scaledSize(o Options, paperSize int) int {
	s := paperSize
	if p.Scaled {
		s = paperSize / o.Scale
	}
	if s < 64 {
		s = 64
	}
	return s
}

// CountedOps is the length of a counted pass.
const CountedOps = 4000

// Modeled is a counted pass: CountedOps seeded operations of a point's mix,
// driven through one worker on the calling goroutine with counting on over
// the competitor's devices, reported per operation. It repeats exactly for
// a seed on any machine; what it cannot show is anything concurrency costs
// (contention, multi-core fence pile-ups).
type Modeled struct {
	NS        float64 // Σ count × cost table
	NVMMLoads float64 // loads from NVMM-priced devices
}

// counted runs a counted pass of spec over a new worker of t.
func counted(t workload.Target, devs []*pmem.Device, spec workload.Spec) (m Modeled) {
	w := t.NewWorker()
	for _, d := range pmem.Count(devs, func() { workload.RunOps(w, spec, CountedOps) }) {
		m.NS += d.NS() / CountedOps
		if d.Model == pmem.NVMMModel() {
			m.NVMMLoads += float64(d.Loads) / CountedOps
		}
	}
	return m
}

// Run prices the panel: each point is a counted pass over a competitor
// prefilled to half its key range. A thread sweep prices its one mix once,
// at one goroutine (the counted pass runs on one), so its table has the
// single row threads = 1.
func (p Panel) Run(o Options) *Table {
	t := &Table{PanelID: p.ID, Title: p.Title}
	for _, c := range p.Competitors {
		t.Columns = append(t.Columns, c.Label)
	}
	// measure prefills a fresh competitor and prices it at each mix, in
	// order, so each pass starts from where the one before it left off.
	measure := func(comp Competitor, keyRange int, rows []TableRow, mixes []workload.Mix) {
		target, devs := comp.Make(keyRange)
		workload.PrefillHalf(target, uint64(keyRange), o.Seed)
		for i, mix := range mixes {
			spec := workload.Spec{KeyRange: uint64(keyRange), Mix: mix, Seed: o.Seed}
			rows[i].Model = append(rows[i].Model, counted(target, devs, spec))
		}
	}
	// For thread and update sweeps the key range is fixed, so each
	// competitor is built and prefilled once and reused across the sweep
	// points (the balanced insert/delete mixes keep it near half-full,
	// as the paper's steady-state measurements assume). Size sweeps need
	// a fresh structure per point.
	switch p.Sweep {
	case SweepThreads, SweepUpdates:
		t.XLabel, t.Rows = "threads", []TableRow{{X: 1}}
		mixes := []workload.Mix{p.Mix}
		if p.Sweep == SweepUpdates {
			t.XLabel, t.Rows, mixes = "update%", nil, nil
			for _, x := range p.UpdatePcts {
				t.Rows = append(t.Rows, TableRow{X: x})
				mixes = append(mixes, workload.UpdateMix(x))
			}
		}
		for _, comp := range p.Competitors {
			measure(comp, p.scaledSize(o, p.FixedSize), t.Rows, mixes)
		}
	case SweepSize:
		t.XLabel = "size"
		for _, s := range p.Sizes {
			row := []TableRow{{X: s}}
			for _, comp := range p.Competitors {
				measure(comp, p.scaledSize(o, s), row, []workload.Mix{p.Mix})
			}
			t.Rows = append(t.Rows, row[0])
		}
	default:
		panic("harness: unknown sweep " + p.Sweep)
	}
	return t
}

// structure display names as the captions write them.
var structTitle = map[string]string{
	StList:     "Linked-List",
	StHash:     "Hash-Table",
	StBST:      "BST",
	StSkipList: "Skip-List",
}

// figurePanels builds the 12 per-structure panels of one figure.
func figurePanels(fig string, mirrorKind engine.Kind) []Panel {
	big := 8 << 20 // the paper's 8M-node structures
	specs := []struct {
		structure string
		letters   [3]string // threads, size, updates
		fixed     int
		sizes     []int
		scaled    bool
	}{
		{StList, [3]string{"a", "b", "c"}, 128,
			[]int{64, 128, 256, 512, 1024, 2048, 4096, 8192}, false},
		{StHash, [3]string{"d", "e", "f"}, big,
			[]int{8 << 10, 64 << 10, 512 << 10, 2 << 20, 8 << 20}, true},
		{StBST, [3]string{"g", "h", "i"}, big,
			[]int{8 << 10, 64 << 10, 512 << 10, 2 << 20, 8 << 20}, true},
		{StSkipList, [3]string{"j", "k", "l"}, big,
			[]int{8 << 10, 64 << 10, 512 << 10, 2 << 20, 8 << 20}, true},
	}
	var panels []Panel
	for _, s := range specs {
		comp := competitorsFor(s.structure, mirrorKind)
		name := structTitle[s.structure]
		sizeNote := fmt.Sprintf("%d nodes", s.fixed)
		if s.scaled {
			sizeNote = "8M nodes (scaled)"
		}
		panels = append(panels,
			Panel{
				ID:        fig + s.letters[0],
				Title:     fmt.Sprintf("%s, varying number of threads, 80%% lookups, %s", name, sizeNote),
				Structure: s.structure, Sweep: SweepThreads,
				Mix: workload.Mix801010, FixedSize: s.fixed, Scaled: s.scaled,
				Competitors: comp,
			},
			Panel{
				ID:        fig + s.letters[1],
				Title:     fmt.Sprintf("%s, varying size, 8 threads, 80%% lookups", name),
				Structure: s.structure, Sweep: SweepSize,
				Mix: workload.Mix801010, Sizes: s.sizes, Scaled: s.scaled,
				Competitors: comp,
			},
			Panel{
				ID:        fig + s.letters[2],
				Title:     fmt.Sprintf("%s, varying update percentage, 8 threads, %s", name, sizeNote),
				Structure: s.structure, Sweep: SweepUpdates,
				FixedSize: s.fixed, Scaled: s.scaled,
				UpdatePcts:  []int{0, 10, 20, 50, 100},
				Competitors: comp,
			},
		)
	}
	return panels
}

// Panels returns every panel of Figures 6 and 7.
func Panels() []Panel {
	panels := figurePanels("fig6", engine.MirrorDRAM)

	// Figure 6(m)(n): Mirror's hash table against the lock-based Cmap.
	cmapComp := []Competitor{
		engineCompetitor(engine.MirrorDRAM, StHash),
		cmapCompetitor(),
	}
	panels = append(panels,
		Panel{
			ID:        "fig6m",
			Title:     "Hash-Table vs Cmap, varying number of threads, 80% reads, 8M nodes (scaled)",
			Structure: StHash, Sweep: SweepThreads,
			Mix: workload.UpdateMix(20), FixedSize: 8 << 20, Scaled: true,
			Competitors: cmapComp,
		},
		Panel{
			ID:        "fig6n",
			Title:     "Hash-Table vs Cmap, varying update percentage, 8 threads, 8M nodes (scaled)",
			Structure: StHash, Sweep: SweepUpdates,
			FixedSize: 8 << 20, Scaled: true,
			UpdatePcts:  []int{0, 10, 20, 50, 100},
			Competitors: cmapComp,
		},
		Panel{
			ID:        "fig6o",
			Title:     "Hash-Table, varying update percentage, 8 threads, 32M nodes (scaled)",
			Structure: StHash, Sweep: SweepUpdates,
			FixedSize: 32 << 20, Scaled: true,
			UpdatePcts:  []int{0, 10, 20, 50, 100},
			Competitors: competitorsFor(StHash, engine.MirrorDRAM),
		},
	)

	panels = append(panels, figurePanels("fig7", engine.MirrorNVMM)...)
	return panels
}

// Find returns the panel with the given ID.
func Find(id string) (Panel, bool) {
	for _, p := range Panels() {
		if p.ID == id {
			return p, true
		}
	}
	return Panel{}, false
}
