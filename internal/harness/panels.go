package harness

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mirror/internal/engine"
	"mirror/internal/workload"
)

// Options control a panel run.
type Options struct {
	// Duration per measured point (default 200ms; the paper uses 5s —
	// raise it for publication-quality numbers).
	Duration time.Duration
	// Scale divides the paper's 8M/32M structure sizes so the simulated
	// devices fit in host memory (default 32, keeping the structures far
	// larger than any cache).
	Scale int
	// Threads is the thread sweep (default 1,2,4,8,16 as in the paper).
	Threads []int
	// Latency applies the DRAM/NVMM latency models (default on; turning
	// it off measures raw simulator speed, not the platform shape).
	Latency bool
	// Seed for the workload PRNGs.
	Seed int64
	// NoElide disables the flush-elision / fence-coalescing layer on the
	// durable engines — the ablation baseline for EXPERIMENTS.md.
	NoElide bool
	// Detect routes every benchmark operation through a detectable-operation
	// bracket (engine.ExactlyOnce), measuring the descriptor overhead — the
	// ablation switch for the detectability layer. Off by default, so the
	// standard matrix is unchanged.
	Detect bool
	// Dist selects the workload key distribution (workload.DistUniform /
	// DistZipfian / DistHotspot; "" means uniform) and Skew its parameter.
	Dist string
	Skew float64
}

func (o *Options) setDefaults() {
	if o.Duration == 0 {
		o.Duration = 200 * time.Millisecond
	}
	if o.Scale == 0 {
		o.Scale = 32
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
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

// Table is a panel's measured output.
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
	Cells []float64 // Mops/s per competitor
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (Mops/s)\n", t.PanelID, t.Title)
	fmt.Fprintf(&b, "%-10s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10d", r.X)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, "%12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cell returns the throughput for a column label at a given X (tests).
func (t *Table) Cell(x int, label string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == label {
			col = i
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.X == x {
			return r.Cells[col], true
		}
	}
	return 0, false
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

// Run measures the panel and returns its table.
func (p Panel) Run(o Options) *Table {
	o.setDefaults()
	t := &Table{PanelID: p.ID, Title: p.Title}
	for _, c := range p.Competitors {
		t.Columns = append(t.Columns, c.Label)
	}
	// For thread and update sweeps the key range is fixed, so each
	// competitor is built and prefilled once and reused across the sweep
	// points (the balanced insert/delete mixes keep it near half-full,
	// as the paper's steady-state measurements assume). Size sweeps need
	// a fresh structure per point.
	run := func(target workload.Target, keyRange, threads int, mix workload.Mix) float64 {
		return workload.Run(target, workload.Spec{
			KeyRange: uint64(keyRange),
			Mix:      mix,
			Threads:  threads,
			Duration: o.Duration,
			Seed:     o.Seed,
			Dist:     o.Dist,
			Skew:     o.Skew,
		}).MopsPerSec()
	}
	switch p.Sweep {
	case SweepThreads, SweepUpdates:
		size := p.scaledSize(o, p.FixedSize)
		var xs []int
		if p.Sweep == SweepThreads {
			t.XLabel = "threads"
			xs = o.Threads
		} else {
			t.XLabel = "update%"
			xs = p.UpdatePcts
		}
		cells := make([][]float64, len(xs))
		for i := range cells {
			cells[i] = make([]float64, len(p.Competitors))
		}
		for ci, comp := range p.Competitors {
			target := comp.Make(o, size)
			workload.PrefillHalf(target, uint64(size), o.Seed)
			for xi, x := range xs {
				if p.Sweep == SweepThreads {
					cells[xi][ci] = run(target, size, x, p.Mix)
				} else {
					cells[xi][ci] = run(target, size, 8, workload.UpdateMix(x))
				}
			}
		}
		for xi, x := range xs {
			t.Rows = append(t.Rows, TableRow{X: x, Cells: cells[xi]})
		}
	case SweepSize:
		t.XLabel = "size"
		for _, s := range p.Sizes {
			keyRange := p.scaledSize(o, s)
			row := TableRow{X: s}
			for _, comp := range p.Competitors {
				target := comp.Make(o, keyRange)
				workload.PrefillHalf(target, uint64(keyRange), o.Seed)
				row.Cells = append(row.Cells, run(target, keyRange, 8, p.Mix))
			}
			t.Rows = append(t.Rows, row)
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

// EnvironmentNote describes the host parallelism, printed alongside
// results since thread counts above GOMAXPROCS share cores.
func EnvironmentNote() string {
	return fmt.Sprintf("host: GOMAXPROCS=%d (thread counts above this share cores)",
		runtime.GOMAXPROCS(0))
}
