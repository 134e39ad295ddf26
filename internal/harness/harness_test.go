package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mirror/internal/engine"
	"mirror/internal/pmem"
	"mirror/internal/workload"
)

// fastOptions keeps unit-test panel runs quick: tiny windows, heavy
// scaling.
func fastOptions() Options {
	return Options{
		Duration: 10 * time.Millisecond,
		Scale:    1 << 14,
		Threads:  []int{1, 2},
		Seed:     7,
	}
}

func TestPanelsComplete(t *testing.T) {
	panels := Panels()
	want := []string{
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
		"fig6g", "fig6h", "fig6i", "fig6j", "fig6k", "fig6l",
		"fig6m", "fig6n", "fig6o",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f",
		"fig7g", "fig7h", "fig7i", "fig7j", "fig7k", "fig7l",
	}
	if len(panels) != len(want) {
		t.Fatalf("got %d panels, want %d", len(panels), len(want))
	}
	have := make(map[string]Panel)
	for _, p := range panels {
		have[p.ID] = p
	}
	for _, id := range want {
		if _, ok := have[id]; !ok {
			t.Errorf("missing panel %s", id)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig6a"); !ok {
		t.Error("fig6a not found")
	}
	if _, ok := Find("fig9z"); ok {
		t.Error("phantom panel found")
	}
}

func TestPanelCompetitorLineups(t *testing.T) {
	p, _ := Find("fig6a")
	labels := map[string]bool{}
	for _, c := range p.Competitors {
		labels[c.Label] = true
	}
	for _, want := range []string{"OrigDRAM", "OrigNVMM", "Izraelevitz", "NVTraverse", "Mirror", "LinkFree", "SOFT"} {
		if !labels[want] {
			t.Errorf("fig6a missing competitor %s", want)
		}
	}
	p7, _ := Find("fig7a")
	found := false
	for _, c := range p7.Competitors {
		if c.Label == "MirrorNVMM" {
			found = true
		}
		if c.Label == "Mirror" {
			t.Error("fig7a must use MirrorNVMM, not Mirror")
		}
	}
	if !found {
		t.Error("fig7a missing MirrorNVMM")
	}
	bstPanel, _ := Find("fig6g")
	for _, c := range bstPanel.Competitors {
		if c.Label == "LinkFree" || c.Label == "SOFT" {
			t.Error("BST panel must not include the set-only hand-made competitors")
		}
	}
	m, _ := Find("fig6m")
	if len(m.Competitors) != 2 || m.Competitors[1].Label != "Cmap" {
		t.Errorf("fig6m competitors = %v", m.Competitors)
	}
}

func TestRunThreadsPanel(t *testing.T) {
	p, _ := Find("fig6a")
	tab := p.Run(fastOptions())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (thread sweep 1,2)", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Cells) != len(tab.Columns) {
			t.Fatalf("row width %d != columns %d", len(r.Cells), len(tab.Columns))
		}
		for i, v := range r.Cells {
			if v <= 0 {
				t.Errorf("threads=%d %s: zero throughput", r.X, tab.Columns[i])
			}
		}
	}
	out := tab.Format()
	if !strings.Contains(out, "fig6a") || !strings.Contains(out, "Mirror") || !strings.Contains(out, "modeled ns/op") {
		t.Errorf("Format output missing headers:\n%s", out)
	}
}

// TestModeledRepeats checks that a panel's modeled block is a function of
// the seed alone: two runs with different timed windows print it byte for
// byte, and every competitor is priced.
func TestModeledRepeats(t *testing.T) {
	p, _ := Find("fig6c")
	modeled := func(d time.Duration) (string, *Table) {
		o := fastOptions()
		o.Duration = d
		tab := p.Run(o)
		out := tab.Format()
		return out[strings.Index(out, "(modeled"):], tab
	}
	a, tab := modeled(5 * time.Millisecond)
	if b, _ := modeled(15 * time.Millisecond); a != b {
		t.Fatalf("modeled block moved between runs:\n%s\n%s", a, b)
	}
	for _, r := range tab.Rows {
		for i, v := range r.Model {
			if v <= 0 {
				t.Errorf("update%%=%d %s: modeled %v ns/op", r.X, tab.Columns[i], v)
			}
		}
	}
}

// keyLog is a workload worker that records the keys of its first
// operations and changes nothing.
type keyLog struct{ keys []uint64 }

func (l *keyLog) note(key uint64) bool {
	if len(l.keys) < 64 {
		l.keys = append(l.keys, key)
	}
	return false
}

func (l *keyLog) Insert(key, _ uint64) bool { return l.note(key) }
func (l *keyLog) Delete(key uint64) bool    { return l.note(key) }
func (l *keyLog) Contains(key uint64) bool  { return l.note(key) }

// TestTimedRunsDoNotReplayTheCountedPass: a point's counted pass and its
// 1-thread timed run drive the same structure one after the other, so the
// timed run must draw a key stream of its own. Replaying the counted pass's
// stream re-applies mutations that already took effect: a slow timed point
// then counted no-effect operations only (0 flushes on Mirror's list).
func TestTimedRunsDoNotReplayTheCountedPass(t *testing.T) {
	var logs []*keyLog // prefill, counted pass, timed run, in creation order
	record := func(Options, int) (workload.Target, []*pmem.Device) {
		return workload.Target{Name: "log", NewWorker: func() workload.Worker {
			l := &keyLog{}
			logs = append(logs, l)
			return l
		}}, nil
	}
	p := Panel{ID: "replay", Structure: StHash, Sweep: SweepThreads, Mix: workload.Mix801010,
		FixedSize: 1 << 20, Competitors: []Competitor{{Label: "log", Make: record}}}
	o := fastOptions()
	o.Threads = []int{1}
	p.Run(o)
	if len(logs) != 3 {
		t.Fatalf("%d workers, want 3 (prefill, counted pass, timed run)", len(logs))
	}
	counted, timed := logs[1].keys, logs[2].keys
	n := min(len(counted), len(timed), 16)
	if n == 0 {
		t.Fatalf("counted pass drew %d keys, timed run %d", len(counted), len(timed))
	}
	if slices.Equal(counted[:n], timed[:n]) {
		t.Fatalf("the timed run replays the counted pass's key stream: both start %v", timed[:n])
	}
}

func TestRunUpdatesPanel(t *testing.T) {
	p, _ := Find("fig6n")
	o := fastOptions()
	tab := p.Run(o)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 update points", len(tab.Rows))
	}
	if _, ok := tab.Cell(0, "Cmap"); !ok {
		t.Error("Cell lookup failed")
	}
}

func TestRunSizePanelScaled(t *testing.T) {
	p, _ := Find("fig6e")
	o := fastOptions()
	o.Threads = []int{2}
	tab := p.Run(o)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 sizes", len(tab.Rows))
	}
	// X column keeps paper-unit sizes even when runs are scaled.
	if tab.Rows[0].X != 8<<10 {
		t.Errorf("first size = %d, want %d", tab.Rows[0].X, 8<<10)
	}
}

func TestDeviceWordsSane(t *testing.T) {
	for _, st := range []string{StList, StHash, StBST, StSkipList} {
		for _, k := range []engine.Kind{engine.OrigDRAM, engine.MirrorDRAM} {
			w := deviceWords(st, k, 100000)
			if w < 100000 {
				t.Errorf("%s/%v: words %d too small", st, k, w)
			}
		}
	}
	if bucketsFor(100)&(bucketsFor(100)-1) != 0 {
		t.Error("bucketsFor must return a power of two")
	}
}

func TestMixesMatchPaper(t *testing.T) {
	p, _ := Find("fig6a")
	if p.Mix != workload.Mix801010 {
		t.Errorf("fig6a mix = %+v", p.Mix)
	}
	m, _ := Find("fig6m")
	if m.Mix != workload.UpdateMix(20) {
		t.Errorf("fig6m mix = %+v, want 80/20", m.Mix)
	}
}

func TestEnvironmentNote(t *testing.T) {
	if !strings.Contains(EnvironmentNote(), "GOMAXPROCS") {
		t.Error("environment note should mention GOMAXPROCS")
	}
}

func TestMeasureSpace(t *testing.T) {
	rep := MeasureSpace(StList, 500)
	if len(rep.Rows) != len(engine.Kinds()) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(engine.Kinds()))
	}
	var mirrorBPK, origBPK float64
	for _, r := range rep.Rows {
		if r.BytesPerKey <= 0 {
			t.Errorf("%s: zero footprint", r.Engine)
		}
		switch r.Engine {
		case "Mirror":
			mirrorBPK = r.BytesPerKey
			if r.Replicas != 2 {
				t.Errorf("Mirror replicas = %d", r.Replicas)
			}
		case "OrigDRAM":
			origBPK = r.BytesPerKey
		}
	}
	// Mirror keeps two replicas of two-word cells: at least 3x the
	// original's footprint (§6.2.5's "double the memory" plus sequence
	// words, modulo size-class rounding).
	if mirrorBPK < 2*origBPK {
		t.Errorf("Mirror %.1f B/key vs Orig %.1f B/key: expected >= 2x", mirrorBPK, origBPK)
	}
	if !strings.Contains(rep.Format(), "bytes/key") {
		t.Error("Format missing header")
	}
}

func TestChart(t *testing.T) {
	p, _ := Find("fig6a")
	tab := p.Run(fastOptions())
	chart := tab.Chart()
	if !strings.Contains(chart, "legend:") || !strings.Contains(chart, "Mops/s") {
		t.Errorf("chart missing parts:\n%s", chart)
	}
	empty := &Table{PanelID: "x", Title: "t", Columns: []string{"a"}}
	if !strings.Contains(empty.Chart(), "no data") {
		t.Error("empty chart should say so")
	}
}

func TestMeasureRecovery(t *testing.T) {
	rep := MeasureRecovery([]int{2000}, []int{1, 4})
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 5 engines x 2 parallelisms", len(rep.Rows))
	}
	perPar := map[int]int{}
	for _, r := range rep.Rows {
		if r.Elapsed <= 0 {
			t.Errorf("%s: zero recovery time", r.Engine)
		}
		if r.KeysPerMS() <= 0 {
			t.Errorf("%s par=%d: zero recovery throughput", r.Engine, r.Parallelism)
		}
		perPar[r.Parallelism]++
	}
	if perPar[1] != 5 || perPar[4] != 5 {
		t.Fatalf("parallelism coverage: %v", perPar)
	}
	if !strings.Contains(rep.Format(), "keys/ms") || !strings.Contains(rep.Format(), "par") {
		t.Error("Format missing header")
	}
}
