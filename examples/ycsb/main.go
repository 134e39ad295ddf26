// ycsb runs the YCSB core suite (A: 50% reads, B: 95% reads, C: read-only,
// D: read-latest, E: scan-heavy, F: read-modify-write, plus the paper's
// 80/10/10 mix) on a chosen structure under every persistence engine,
// printing a throughput comparison — a miniature interactive version of
// the paper's evaluation. Each YCSB letter runs its suite-default zipfian
// request distribution unless -dist overrides it. On ordered structures
// (bst, skiplist) YCSB-E scans run natively through Range, and on the
// skiplist YCSB-F read-modify-writes run natively through CasVal; other
// structures use workload.Run's documented point-operation fallbacks.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mirror"
	"mirror/internal/workload"
)

func main() {
	var (
		structure = flag.String("structure", "hashtable", "list|hashtable|bst|skiplist")
		keyRange  = flag.Int("range", 1<<16, "key range (prefilled to half)")
		threads   = flag.Int("threads", 4, "worker goroutines")
		duration  = flag.Duration("duration", 300*time.Millisecond, "window per cell")
		letters   = flag.String("workloads", "A,B,C", "comma-separated YCSB letters (A..F)")
		distF     = flag.String("dist", "", "override the suite's request distribution (uniform|zipfian|hotspot)")
		skew      = flag.Float64("skew", 0, "distribution parameter (zipfian theta / hotspot fraction)")
	)
	flag.Parse()

	type column struct {
		name string
		mix  workload.Mix
		dist string
	}
	var mixes []column
	for _, part := range strings.Split(*letters, ",") {
		part = strings.TrimSpace(part)
		if len(part) != 1 {
			fmt.Fprintf(os.Stderr, "bad -workloads entry %q (want single letters A..F)\n", part)
			os.Exit(2)
		}
		mix, dist, ok := workload.YCSBMix(part[0])
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown YCSB workload %q\n", part)
			os.Exit(2)
		}
		if *distF != "" {
			dist = *distF
		}
		mixes = append(mixes, column{"YCSB-" + strings.ToUpper(part), mix, dist})
	}
	mixes = append(mixes, column{"80/10/10", workload.Mix801010, *distF})
	kinds := []mirror.Kind{
		mirror.OrigDRAM, mirror.OrigNVMM, mirror.Izraelevitz,
		mirror.NVTraverse, mirror.MirrorDRAM, mirror.MirrorNVMM,
	}

	fmt.Printf("%s, range %d, %d threads, %v per cell (Mops/s)\n",
		*structure, *keyRange, *threads, *duration)
	fmt.Printf("%-12s", "engine")
	for _, m := range mixes {
		fmt.Printf("%10s", m.name)
	}
	fmt.Println()

	for _, kind := range kinds {
		fmt.Printf("%-12s", kind)
		for _, m := range mixes {
			rt := mirror.New(mirror.Options{
				Kind:            kind,
				Words:           *keyRange*24 + 1<<20,
				DisableTracking: true,
			})
			ctx := rt.NewCtx()
			var set mirror.Set
			switch *structure {
			case "list":
				set = rt.NewList(ctx)
			case "hashtable":
				set = rt.NewHashTable(ctx, pow2(*keyRange/2))
			case "bst":
				set = rt.NewBST(ctx)
			case "skiplist":
				set = rt.NewSkipList(ctx)
			default:
				fmt.Fprintf(os.Stderr, "unknown structure %q\n", *structure)
				os.Exit(2)
			}
			target := workload.Target{
				Name:          *structure,
				SortedPrefill: *structure == "list",
				NewWorker: func() workload.Worker {
					return buildWorker(set, rt.NewCtx())
				},
			}
			workload.PrefillHalf(target, uint64(*keyRange), 1)
			res := workload.Run(target, workload.Spec{
				KeyRange: uint64(*keyRange),
				Mix:      m.mix,
				Threads:  *threads,
				Duration: *duration,
				Seed:     1,
				Dist:     m.dist,
				Skew:     *skew,
			})
			fmt.Printf("%10.3f", res.MopsPerSec())
		}
		fmt.Println()
	}
}

type worker struct {
	set mirror.Set
	ctx *mirror.Ctx
}

func (w worker) Insert(key, val uint64) bool { return w.set.Insert(w.ctx, key, val) }
func (w worker) Delete(key uint64) bool      { return w.set.Delete(w.ctx, key) }
func (w worker) Contains(key uint64) bool    { return w.set.Contains(w.ctx, key) }

// Optional native capabilities of the underlying structures, detected by
// interface assertion so each worker only advertises what its structure
// really supports (workload.Run falls back per the Scanner/RMWer docs
// otherwise).
type ranger interface {
	Range(c *mirror.Ctx, from, to uint64, fn func(key, val uint64) bool)
}
type casser interface {
	Get(c *mirror.Ctx, key uint64) (uint64, bool)
	CasVal(c *mirror.Ctx, key, expect, repl uint64) bool
}

// buildWorker wraps the base worker with the native scan (Range) and RMW
// (Get + CasVal) paths its structure supports.
func buildWorker(set mirror.Set, ctx *mirror.Ctx) workload.Worker {
	w := worker{set, ctx}
	r, hasR := set.(ranger)
	cv, hasC := set.(casser)
	switch {
	case hasR && hasC:
		return scanRMWWorker{scanWorker{w, r}, cv}
	case hasR:
		return scanWorker{w, r}
	case hasC:
		return rmwWorker{w, cv}
	default:
		return w
	}
}

// scanWorker serves YCSB-E scans natively: count the present keys of
// [from, to] by ordered iteration.
type scanWorker struct {
	worker
	r ranger
}

func (w scanWorker) Scan(from, to uint64) int {
	n := 0
	w.r.Range(w.ctx, from, to, func(key, val uint64) bool {
		n++
		return true
	})
	return n
}

// rmwWorker serves YCSB-F read-modify-writes natively: read the current
// value, compare-and-set the new one. An absent key or a lost race is a
// failed RMW, as YCSB counts it.
type rmwWorker struct {
	worker
	cv casser
}

func (w rmwWorker) RMW(key, val uint64) bool { return rmw(w.ctx, w.cv, key, val) }

type scanRMWWorker struct {
	scanWorker
	cv casser
}

func (w scanRMWWorker) RMW(key, val uint64) bool { return rmw(w.ctx, w.cv, key, val) }

func rmw(ctx *mirror.Ctx, cv casser, key, val uint64) bool {
	cur, ok := cv.Get(ctx, key)
	if !ok {
		return false
	}
	return cv.CasVal(ctx, key, cur, val)
}

func pow2(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}
