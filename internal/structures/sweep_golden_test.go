package structures_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirror/internal/engine"
	"mirror/internal/structures"
	"mirror/internal/structures/queue"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep.golden from this build")

// TestSweepGolden is the count/hash oracle for refactors of the persistence
// path: one fixed single-threaded script on every engine configuration the
// tree builds — 6 kinds × detect {off, deferred} × (4 sets + the queue) —
// and, per configuration, one row of everything a refactor must not move:
// flushes, fences, every Stats field, the hash of the quiesced media image,
// a fold of the operations' return values and the verdicts Detect gives
// afterwards. The rows are compared with testdata/sweep.golden byte for
// byte. A change that means to move a count regenerates the file with
//
//	go test ./internal/structures -run TestSweepGolden -update
//
// and owns the diff; a change that does not must pass against the file
// generated at its parent.
func TestSweepGolden(t *testing.T) {
	var got bytes.Buffer
	for _, kind := range engine.Kinds() {
		for _, detect := range []string{"off", "deferred"} {
			for _, name := range []string{"list", "hashtable", "bst", "skiplist", "queue"} {
				got.WriteString(sweepRow(kind, detect, name))
			}
		}
	}
	path := filepath.Join("testdata", "sweep.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotRows, wantRows := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotRows) != len(wantRows) {
		t.Errorf("%d rows, golden has %d", len(gotRows), len(wantRows))
	}
	shown := 0
	for i := 0; i < len(gotRows) && i < len(wantRows) && shown < 10; i++ {
		if gotRows[i] != wantRows[i] {
			t.Errorf("row %d moved:\n got  %s\n want %s", i+1, gotRows[i], wantRows[i])
			shown++
		}
	}
}

// sweepRow runs the fixed script on one configuration and renders its row.
func sweepRow(kind engine.Kind, detect string, structure string) string {
	const clients = 2
	cfg := engine.Config{Kind: kind, Words: 1 << 16, Track: true}
	if detect != "off" {
		cfg.Clients = clients
	}
	cfg.SetDefaults()
	e := engine.New(cfg)
	c := e.NewCtx()
	var (
		set structures.Set
		q   *queue.Queue
	)
	if structure == "queue" {
		q = queue.New(e, c)
	} else {
		set = builders()[structure](e, c)
	}

	// results folds every operation's return value (FNV-1a over words).
	results := uint64(14695981039346656037)
	fold := func(v uint64) { results = (results ^ v) * 1099511628211 }

	// mutate runs one mutation, detectable unless detect is off; clients
	// alternate, and verdicts drain four to a batch.
	var seqs [clients]uint64
	n, pending := 0, 0
	mutate := func(opKind, key, val uint64, op func() (bool, uint64)) {
		client := n % clients
		n++
		var ok bool
		var rval uint64
		if detect == "off" {
			ok, rval = op()
		} else {
			seqs[client]++
			e.DetectBeginDeferred(c, client, seqs[client], opKind, key, val)
			ok, rval = op()
			e.DetectEndDeferred(c, ok, rval)
			if pending++; pending == 4 {
				e.DetectDrain(c)
				pending = 0
			}
		}
		if ok {
			fold(1)
		} else {
			fold(0)
		}
		fold(rval)
	}
	insert := func(key, val uint64) {
		if q != nil {
			mutate(engine.DetectEnqueue, 0, val, func() (bool, uint64) { q.Enqueue(c, val); return true, 0 })
			return
		}
		mutate(engine.DetectInsert, key, val, func() (bool, uint64) { return set.Insert(c, key, val), 0 })
	}
	remove := func(key uint64) {
		if q != nil {
			mutate(engine.DetectDequeue, 0, 0, func() (bool, uint64) { v, ok := q.Dequeue(c); return ok, v })
			return
		}
		mutate(engine.DetectDelete, key, 0, func() (bool, uint64) { return set.Delete(c, key), 0 })
	}
	read := func(key uint64) {
		var v uint64
		var ok bool
		if q != nil {
			v, ok = q.Peek(c)
		} else {
			v, ok = set.Get(c, key)
		}
		if ok {
			fold(v)
		}
	}

	// Insert, delete every other key, re-insert: the deletes leave marked
	// nodes for the re-inserts' traversals to cross and snip. Then a seeded
	// mix over a small key space, so inserts find their key and deletes miss.
	for k := uint64(1); k <= 120; k++ {
		insert(k, k)
	}
	for k := uint64(1); k <= 120; k += 2 {
		remove(k)
	}
	for k := uint64(1); k <= 120; k++ {
		insert(k, k+1)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 240; i++ {
		key := uint64(1 + rng.Intn(160))
		switch rng.Intn(4) {
		case 0, 1:
			insert(key, key+2)
		case 2:
			remove(key)
		default:
			read(key)
		}
	}
	if detect != "off" {
		e.DetectDrain(c)
	}

	flushes, fences := e.Counters()
	s := e.Stats()
	e.Drain(c)
	media := "-"
	if devs := engine.PersistentDevices(e); len(devs) > 0 {
		var hs []string
		for _, d := range devs {
			hs = append(hs, fmt.Sprintf("%016x", d.MediaHash()))
		}
		media = strings.Join(hs, "+")
	}

	// One letter per (client, seq) over each client's last ring of seqs:
	// T/F committed with that result, c committed without one, N not
	// committed, U unknown; a recorded return word follows its letter.
	verdicts := "-"
	if detect != "off" {
		var b strings.Builder
		for client := 0; client < clients; client++ {
			if client > 0 {
				b.WriteByte('|')
			}
			first := uint64(1)
			if ring := uint64(cfg.DetectRing); seqs[client] > ring {
				first = seqs[client] - ring + 1
			}
			for seq := first; seq <= seqs[client]; seq++ {
				d := e.Detect(client, seq)
				switch {
				case d.Verdict == engine.Committed && d.KnownResult && d.Result:
					b.WriteByte('T')
				case d.Verdict == engine.Committed && d.KnownResult:
					b.WriteByte('F')
				case d.Verdict == engine.Committed:
					b.WriteByte('c')
				case d.Verdict == engine.NotCommitted:
					b.WriteByte('N')
				default:
					b.WriteByte('U')
				}
				if d.Rval != 0 {
					fmt.Fprintf(&b, "%d", d.Rval)
				}
			}
		}
		verdicts = b.String()
	}

	// "elide" names the persistence policy every engine runs.
	return fmt.Sprintf("%s/elide/%s/%s flushes=%d fences=%d helps=%d retries=%d elidedFlushes=%d elidedFences=%d piggybacked=%d relaxedCAS=%d announces=%d verdicts=%d media=%s results=%016x detect=%s\n",
		kind, detect, structure, flushes, fences,
		s.Helps, s.Retries, s.ElidedFlushes, s.ElidedFences, s.PiggybackedFences, s.RelaxedCAS,
		s.DetectAnnounces, s.DetectVerdicts, media, results, verdicts)
}
