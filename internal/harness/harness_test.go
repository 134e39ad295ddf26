package harness

import (
	"strings"
	"sync"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/workload"
)

// fastOptions keeps unit-test panel runs quick: heavy scaling.
func fastOptions() Options {
	return Options{Scale: 1 << 14, Seed: 7}
}

// checkShape checks a panel's table: one row per sweep point with the
// point's paper-unit X, and one priced cell per competitor.
func checkShape(t *testing.T, p Panel, tab *Table, xs []int) {
	t.Helper()
	if len(tab.Rows) != len(xs) {
		t.Fatalf("%s: rows = %d, want %d", p.ID, len(tab.Rows), len(xs))
	}
	if len(tab.Columns) != len(p.Competitors) {
		t.Fatalf("%s: columns = %d, want %d", p.ID, len(tab.Columns), len(p.Competitors))
	}
	for i, r := range tab.Rows {
		if r.X != xs[i] {
			t.Errorf("%s row %d: X = %d, want %d", p.ID, i, r.X, xs[i])
		}
		if len(r.Model) != len(tab.Columns) {
			t.Fatalf("%s: row width %d != columns %d", p.ID, len(r.Model), len(tab.Columns))
		}
		for j, m := range r.Model {
			if m.NS <= 0 {
				t.Errorf("%s %s=%d %s: modeled %v ns/op", p.ID, tab.XLabel, r.X, tab.Columns[j], m.NS)
			}
		}
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

// TestRunThreadsPanel: the counted pass runs on one goroutine, so a thread
// sweep prices its mix once, in the row threads = 1.
func TestRunThreadsPanel(t *testing.T) {
	p, _ := Find("fig6a")
	tab := p.Run(fastOptions())
	checkShape(t, p, tab, []int{1})
	out := tab.Format()
	if !strings.Contains(out, "fig6a") || !strings.Contains(out, "Mirror") || !strings.Contains(out, "modeled ns/op") {
		t.Errorf("Format output missing headers:\n%s", out)
	}
}

// TestModeledRepeats checks that a panel's table is a function of the seed
// alone: two runs on two goroutines at once print it byte for byte, so
// panels share no state and may run in parallel.
func TestModeledRepeats(t *testing.T) {
	p, _ := Find("fig6f")
	var tabs [2]*Table
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i] = p.Run(fastOptions())
		}()
	}
	wg.Wait()
	if a, b := tabs[0].Format(), tabs[1].Format(); a != b {
		t.Fatalf("modeled table moved between runs:\n%s\n%s", a, b)
	}
	checkShape(t, p, tabs[0], p.UpdatePcts)
}

func TestRunUpdatesPanel(t *testing.T) {
	p, _ := Find("fig6n")
	checkShape(t, p, p.Run(fastOptions()), []int{0, 10, 20, 50, 100})
}

// TestRunSizePanelScaled: the X column keeps paper-unit sizes even when
// the structures are scaled down.
func TestRunSizePanelScaled(t *testing.T) {
	p, _ := Find("fig6e")
	checkShape(t, p, p.Run(fastOptions()), []int{8 << 10, 64 << 10, 512 << 10, 2 << 20, 8 << 20})
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
