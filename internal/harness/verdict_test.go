package harness

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite testdata/*.golden and EXPERIMENTS.md's generated blocks from this build")

// experimentsPath is the record whose generated blocks the claims render.
const experimentsPath = "../../EXPERIMENTS.md"

// claim is one of the paper's evaluation claims, checked as inequalities
// between exact counted-pass cells.
type claim struct {
	name    string // the EXPERIMENTS.md block it renders into, e.g. "claim 1"
	paper   string // the paper's statement, quoted in every failure
	differs string // how the reproduced verdict differs from the paper's; "" where it agrees
	check   func(v *verdict)
}

// verdict checks one claim and renders each assertion it makes as one line
// of the claim's EXPERIMENTS.md block.
type verdict struct {
	t      *testing.T
	c      claim
	tables map[string]*Table
	lines  []string
}

func (v *verdict) fail(format string, args ...any) {
	v.t.Helper()
	v.t.Errorf("%s: %s\n  the paper: %s", v.c.name, fmt.Sprintf(format, args...), v.c.paper)
}

func (v *verdict) say(format string, args ...any) {
	v.lines = append(v.lines, "- "+fmt.Sprintf(format, args...))
}

// render is the claim's EXPERIMENTS.md block.
func (v *verdict) render() string {
	var b strings.Builder
	b.WriteString(strings.Join(v.lines, "\n"))
	b.WriteByte('\n')
	if v.c.differs != "" {
		fmt.Fprintf(&b, "\n**Differs from the paper:** %s\n", v.c.differs)
	}
	return b.String()
}

func (v *verdict) table(id string) *Table {
	v.t.Helper()
	tab, ok := v.tables[id]
	if !ok {
		v.t.Fatalf("%s: no table for panel %s", v.c.name, id)
	}
	return tab
}

// col is the index of a competitor's column in a table.
func (v *verdict) col(tab *Table, label string) int {
	v.t.Helper()
	for i, c := range tab.Columns {
		if c == label {
			return i
		}
	}
	v.t.Fatalf("%s: %s has no column %s", v.c.name, tab.PanelID, label)
	return -1
}

// cell is one competitor's counted pass at one point of a panel.
func (v *verdict) cell(id string, x int, label string) Modeled {
	v.t.Helper()
	tab := v.table(id)
	j := v.col(tab, label)
	for _, r := range tab.Rows {
		if r.X == x {
			return r.Model[j]
		}
	}
	v.t.Fatalf("%s: %s has no point %s %d", v.c.name, id, tab.XLabel, x)
	return Modeled{}
}

func (v *verdict) at(id string, x int) string {
	return fmt.Sprintf("%s %s %d", id, v.table(id).XLabel, x)
}

// cheaper asserts that a costs less than b at one point.
func (v *verdict) cheaper(id string, x int, a, b string) {
	v.t.Helper()
	ca, cb := v.cell(id, x, a).NS, v.cell(id, x, b).NS
	v.say("%s: %s %.1f < %s %.1f (%.2f×)", v.at(id, x), a, ca, b, cb, cb/ca)
	if !(ca < cb) {
		v.fail("%s: %s %.1f ns/op is not below %s %.1f", v.at(id, x), a, ca, b, cb)
	}
}

// factor asserts that hi costs at least min times what lo costs at one point.
func (v *verdict) factor(id string, x int, hi, lo string, min float64) {
	v.t.Helper()
	ch, cl := v.cell(id, x, hi).NS, v.cell(id, x, lo).NS
	v.say("%s: %s / %s = %.1f / %.1f = %.2f× ≥ %.2f×", v.at(id, x), hi, lo, ch, cl, ch/cl, min)
	if !(ch >= min*cl) {
		v.fail("%s: %s / %s = %.2f×, below %.2f×", v.at(id, x), hi, lo, ch/cl, min)
	}
}

// fewerLoads asserts that a issues at most 1/factor of b's NVMM loads per
// operation at one point.
func (v *verdict) fewerLoads(id string, x int, a, b string, factor float64) {
	v.t.Helper()
	la, lb := v.cell(id, x, a).NVMMLoads, v.cell(id, x, b).NVMMLoads
	v.say("%s: NVMM loads per op, %s %.2f ≤ %s %.2f / %.0f", v.at(id, x), a, la, b, lb, factor)
	if !(factor*la <= lb) {
		v.fail("%s: %s issues %.2f NVMM loads per op, more than 1/%.0f of %s's %.2f", v.at(id, x), a, la, factor, b, lb)
	}
}

// equal asserts that a and b cost exactly the same at one point.
func (v *verdict) equal(id string, x int, a, b string) {
	v.t.Helper()
	ca, cb := v.cell(id, x, a).NS, v.cell(id, x, b).NS
	v.say("%s: %s = %s = %.1f", v.at(id, x), a, b, ca)
	if ca != cb {
		v.fail("%s: %s %.1f ≠ %s %.1f", v.at(id, x), a, ca, b, cb)
	}
}

// within asserts that the dearest of labels costs at most frac more than
// the cheapest at one point.
func (v *verdict) within(id string, x int, frac float64, labels ...string) {
	v.t.Helper()
	lo, hi := math.Inf(1), 0.0
	for _, l := range labels {
		c := v.cell(id, x, l).NS
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	spread := hi/lo - 1
	v.say("%s: %s within %.1f %% of each other (%.1f–%.1f) ≤ %.0f %%",
		v.at(id, x), strings.Join(labels, ", "), 100*spread, lo, hi, 100*frac)
	if spread > frac {
		v.fail("%s: %s spread %.1f %%, above %.0f %%", v.at(id, x), strings.Join(labels, ", "), 100*spread, 100*frac)
	}
}

// ordered asserts that labels cost strictly more from left to right at
// every point of every panel in ids.
func (v *verdict) ordered(ids []string, labels ...string) {
	v.t.Helper()
	points, least := 0, math.Inf(1)
	for _, id := range ids {
		tab := v.table(id)
		for _, r := range tab.Rows {
			points++
			for i := 1; i < len(labels); i++ {
				a, b := r.Model[v.col(tab, labels[i-1])].NS, r.Model[v.col(tab, labels[i])].NS
				least = math.Min(least, b/a)
				if !(a < b) {
					v.fail("%s: %s %.1f is not below %s %.1f", v.at(id, r.X), labels[i-1], a, labels[i], b)
				}
			}
		}
	}
	v.say("%s at all %d points of %s (least step %.2f×)",
		strings.Join(labels, " < "), points, strings.Join(ids, ", "), least)
}

// dearest asserts that label costs the most at every point of every panel
// in ids.
func (v *verdict) dearest(ids []string, label string) {
	v.t.Helper()
	points, least := 0, math.Inf(1)
	for _, id := range ids {
		tab := v.table(id)
		j := v.col(tab, label)
		for _, r := range tab.Rows {
			points++
			for i, m := range r.Model {
				if i == j {
					continue
				}
				least = math.Min(least, r.Model[j].NS/m.NS)
				if !(m.NS < r.Model[j].NS) {
					v.fail("%s: %s %.1f is not the dearest (%s %.1f)",
						v.at(id, r.X), label, r.Model[j].NS, tab.Columns[i], m.NS)
				}
			}
		}
	}
	v.say("%s costs the most at all %d points of %s (least margin %.2f×)",
		label, points, strings.Join(ids, ", "), least)
}

// grows asserts that hi / lo never shrinks from one point of a sweep to
// the next.
func (v *verdict) grows(id, hi, lo string) {
	v.t.Helper()
	tab := v.table(id)
	jh, jl := v.col(tab, hi), v.col(tab, lo)
	var steps []string
	prev := 0.0
	for _, r := range tab.Rows {
		ratio := r.Model[jh].NS / r.Model[jl].NS
		steps = append(steps, fmt.Sprintf("%.2f× at %d", ratio, r.X))
		if ratio < prev {
			v.fail("%s: %s / %s shrinks to %.3f× from %.3f×", v.at(id, r.X), hi, lo, ratio, prev)
		}
		prev = ratio
	}
	v.say("%s: %s / %s by %s: %s, never shrinking", id, hi, lo, tab.XLabel, strings.Join(steps, ", "))
}

// checkGolden compares got with testdata/name byte for byte, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotRows, wantRows := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotRows) != len(wantRows) {
		t.Errorf("%s: %d lines, golden has %d", name, len(gotRows), len(wantRows))
	}
	shown := 0
	for i := 0; i < len(gotRows) && i < len(wantRows) && shown < 10; i++ {
		if gotRows[i] != wantRows[i] {
			t.Errorf("%s line %d moved:\n got  %s\n want %s", name, i+1, gotRows[i], wantRows[i])
			shown++
		}
	}
}

// checkDoc compares each named block of EXPERIMENTS.md with its rendering,
// or rewrites the blocks under -update. A block is the text between the
// lines "<!-- begin NAME: generated by go test ./internal/harness -update -->"
// and "<!-- end NAME -->".
func checkDoc(t *testing.T, blocks map[string]string) {
	t.Helper()
	data, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for name, body := range blocks {
		begin := fmt.Sprintf("<!-- begin %s: generated by go test ./internal/harness -update -->\n", name)
		end := fmt.Sprintf("<!-- end %s -->", name)
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Errorf("EXPERIMENTS.md has no block %q", name)
			continue
		}
		i += len(begin)
		if doc[i:j] == body {
			continue
		}
		if *update {
			doc = doc[:i] + body + doc[j:]
			continue
		}
		t.Errorf("EXPERIMENTS.md block %q is stale (regenerate it with -update):\n got\n%s\n want\n%s",
			name, doc[i:j], body)
	}
	if *update && doc != string(data) {
		if err := os.WriteFile(experimentsPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
