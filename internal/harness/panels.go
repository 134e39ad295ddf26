package harness

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
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
	// Seed for the workload PRNGs.
	Seed int64
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
	Cells []float64 // native Mops/s per competitor
	Model []float64 // modeled ns/op per competitor (the counted pass)
}

// Format renders the table as aligned text: the native throughput block,
// then the modeled block, which repeats exactly for a seed.
func (t *Table) Format() string {
	var b strings.Builder
	t.block(&b, "Mops/s", "%12.3f", func(r TableRow) []float64 { return r.Cells })
	t.block(&b, fmt.Sprintf("modeled ns/op, counted pass of %d ops", CountedOps), "%12.1f",
		func(r TableRow) []float64 { return r.Model })
	return b.String()
}

func (t *Table) block(b *strings.Builder, unit, cell string, of func(TableRow) []float64) {
	fmt.Fprintf(b, "%s — %s (%s)\n", t.PanelID, t.Title, unit)
	fmt.Fprintf(b, "%-10s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(b, "%-10d", r.X)
		for _, v := range of(r) {
			fmt.Fprintf(b, cell, v)
		}
		b.WriteByte('\n')
	}
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

// CountedOps is the length of a counted pass.
const CountedOps = 4000

// Modeled is a counted pass: CountedOps seeded operations of a point's mix,
// driven through one worker on the calling goroutine with counting on over
// the competitor's devices, reported per operation. It repeats exactly for
// a seed on any machine; what it cannot show is anything concurrency costs
// (contention, multi-core fence pile-ups).
type Modeled struct {
	NS         float64 `json:"model_ns_per_op,omitempty"` // Σ count × cost table
	NVMMLoads  float64 `json:"nvmm_loads_per_op,omitempty"`
	NVMMStores float64 `json:"nvmm_stores_per_op,omitempty"`
}

// counted runs a counted pass of spec over a new worker of t.
func counted(t workload.Target, devs []*pmem.Device, spec workload.Spec) (m Modeled) {
	w := t.NewWorker()
	for _, d := range pmem.Count(devs, func() { workload.RunOps(w, spec, CountedOps) }) {
		m.NS += d.NS() / CountedOps
		if d.Model == pmem.NVMMModel() {
			m.NVMMLoads += float64(d.Loads) / CountedOps
			m.NVMMStores += float64(d.Stores) / CountedOps
		}
	}
	return m
}

// spec is the workload of one point.
func (o Options) spec(keyRange, threads int, mix workload.Mix) workload.Spec {
	return workload.Spec{
		KeyRange: uint64(keyRange),
		Mix:      mix,
		Threads:  threads,
		Duration: o.Duration,
		Seed:     o.Seed,
		Dist:     o.Dist,
		Skew:     o.Skew,
	}
}

// timed is the workload of a timed point: the point's spec under a seed of
// its own. Under the counted pass's seed a 1-thread timed run would replay
// the key stream the counted pass has just applied to the same structure,
// and its first CountedOps operations would mostly take no effect.
func (o Options) timed(keyRange, threads int, mix workload.Mix) workload.Spec {
	s := o.spec(keyRange, threads, mix)
	s.Seed = ^o.Seed
	return s
}

// Run measures the panel and returns its table. Each point is measured
// twice: a timed run with counting off (native Mops/s) and a counted pass
// (modeled ns/op).
func (p Panel) Run(o Options) *Table {
	o.setDefaults()
	t := &Table{PanelID: p.ID, Title: p.Title}
	for _, c := range p.Competitors {
		t.Columns = append(t.Columns, c.Label)
	}
	// measure prefills a fresh competitor and measures it at the given
	// points. Every counted pass runs before any timed run, so the state
	// each starts from is the same on every machine; a thread sweep keeps
	// one mix and takes one pass.
	measure := func(comp Competitor, keyRange int, rows []TableRow, threads []int, mixes []workload.Mix) {
		target, devs := comp.Make(o, keyRange)
		workload.PrefillHalf(target, uint64(keyRange), o.Seed)
		model := make([]float64, len(mixes))
		for i, mix := range mixes {
			model[i] = counted(target, devs, o.spec(keyRange, 1, mix)).NS
		}
		for i := range rows {
			mi := min(i, len(mixes)-1)
			rows[i].Cells = append(rows[i].Cells,
				workload.Run(target, o.timed(keyRange, threads[i], mixes[mi])).MopsPerSec())
			rows[i].Model = append(rows[i].Model, model[mi])
		}
	}
	// For thread and update sweeps the key range is fixed, so each
	// competitor is built and prefilled once and reused across the sweep
	// points (the balanced insert/delete mixes keep it near half-full,
	// as the paper's steady-state measurements assume). Size sweeps need
	// a fresh structure per point.
	switch p.Sweep {
	case SweepThreads, SweepUpdates:
		xs, threads, mixes := o.Threads, o.Threads, []workload.Mix{p.Mix}
		t.XLabel = "threads"
		if p.Sweep == SweepUpdates {
			t.XLabel, xs, threads, mixes = "update%", p.UpdatePcts, nil, nil
			for _, x := range xs {
				threads = append(threads, 8)
				mixes = append(mixes, workload.UpdateMix(x))
			}
		}
		t.Rows = make([]TableRow, len(xs))
		for i, x := range xs {
			t.Rows[i].X = x
		}
		for _, comp := range p.Competitors {
			measure(comp, p.scaledSize(o, p.FixedSize), t.Rows, threads, mixes)
		}
	case SweepSize:
		t.XLabel = "size"
		for _, s := range p.Sizes {
			row := []TableRow{{X: s}}
			for _, comp := range p.Competitors {
				measure(comp, p.scaledSize(o, s), row, []int{8}, []workload.Mix{p.Mix})
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

// EnvironmentNote describes the host parallelism, printed alongside
// results since thread counts above GOMAXPROCS share cores.
func EnvironmentNote() string {
	return fmt.Sprintf("host: GOMAXPROCS=%d (thread counts above this share cores)",
		runtime.GOMAXPROCS(0))
}
