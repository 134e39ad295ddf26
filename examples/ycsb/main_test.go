package main

import (
	"sync"
	"testing"
	"time"

	"mirror"
	"mirror/internal/workload"
)

// spanRecorder wraps the native scan worker and records every scan's span
// (to-from+1 keys requested) and result size.
type spanRecorder struct {
	scanRMWWorker
	mu      *sync.Mutex
	spans   *[]uint64
	results *[]int
}

func (w spanRecorder) Scan(from, to uint64) int {
	n := w.scanRMWWorker.Scan(from, to)
	w.mu.Lock()
	*w.spans = append(*w.spans, to-from+1)
	*w.results = append(*w.results, n)
	w.mu.Unlock()
	return n
}

// TestYCSBEScanDistribution drives YCSB-E natively over the skip list and
// checks the scan-length distribution against the YCSB spec: request
// spans uniform on [1, 2*ScanMax] (so the mean request is ~ScanMax), and —
// with the key range half prefilled — a mean result size of ~span/2.
func TestYCSBEScanDistribution(t *testing.T) {
	const keyRange = 1 << 16
	const scanMax = 100
	rt := mirror.New(mirror.Options{
		Kind: mirror.MirrorDRAM, Words: keyRange*24 + 1<<20, DisableTracking: true,
	})
	ctx := rt.NewCtx()
	set := rt.NewSkipList(ctx)
	var (
		mu      sync.Mutex
		spans   []uint64
		results []int
	)
	target := workload.Target{
		Name: "skiplist",
		NewWorker: func() workload.Worker {
			base := buildWorker(set, rt.NewCtx()).(scanRMWWorker)
			return spanRecorder{base, &mu, &spans, &results}
		},
	}
	workload.PrefillHalf(target, keyRange, 1)
	mix, dist, _ := workload.YCSBMix('E')
	res := workload.Run(target, workload.Spec{
		KeyRange: keyRange,
		Mix:      mix,
		Threads:  2,
		Duration: 150 * time.Millisecond,
		Seed:     1,
		Dist:     dist,
		ScanMax:  scanMax,
	})
	if res.Scans == 0 {
		t.Fatal("YCSB-E ran no scans")
	}
	// The mix itself: 95% scans, 5% inserts.
	if frac := float64(res.Scans) / float64(res.Ops); frac < 0.90 || frac > 0.99 {
		t.Fatalf("scan fraction %.3f, want ~0.95", frac)
	}
	if len(spans) < 1000 {
		t.Fatalf("only %d recorded scans — too few to test the distribution", len(spans))
	}
	// Span bounds: uniform on [1, 2*scanMax] (edge clipping at the top of
	// the key range is possible but rare with zipfian's low-key bias).
	var sum float64
	quart := [4]int{}
	for _, s := range spans {
		if s < 1 || s > 2*scanMax+1 {
			t.Fatalf("scan span %d outside [1, %d]", s, 2*scanMax+1)
		}
		sum += float64(s)
		q := int((s - 1) * 4 / (2*scanMax + 1))
		if q > 3 {
			q = 3
		}
		quart[q]++
	}
	mean := sum / float64(len(spans))
	if mean < 0.85*scanMax || mean > 1.15*scanMax {
		t.Fatalf("mean scan span %.1f, want ~%d (uniform [1, %d])", mean, scanMax, 2*scanMax)
	}
	// Coarse uniformity: each quartile of the span range holds 25%±10 of
	// the draws.
	for i, n := range quart {
		frac := float64(n) / float64(len(spans))
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("span quartile %d holds %.1f%% of draws, want ~25%%", i, 100*frac)
		}
	}
	// Result sizes: half the range is present, so a scan returns ~span/2
	// keys on average.
	var rsum float64
	for _, n := range results {
		rsum += float64(n)
	}
	rmean := rsum / float64(len(results))
	if rmean < 0.3*mean || rmean > 0.7*mean {
		t.Fatalf("mean scan result %.1f keys for mean span %.1f, want ~span/2", rmean, mean)
	}
}

// TestYCSBFNativeRMW checks the skip list worker serves RMW natively (the
// interface assertion holds) and that an RMW observably updates the value.
func TestYCSBFNativeRMW(t *testing.T) {
	rt := mirror.New(mirror.Options{
		Kind: mirror.MirrorDRAM, Words: 1 << 20, DisableTracking: true,
	})
	ctx := rt.NewCtx()
	set := rt.NewSkipList(ctx)
	w := buildWorker(set, rt.NewCtx())
	rmwer, ok := w.(workload.RMWer)
	if !ok {
		t.Fatal("skiplist worker does not implement workload.RMWer")
	}
	if _, ok := w.(workload.Scanner); !ok {
		t.Fatal("skiplist worker does not implement workload.Scanner")
	}
	if rmwer.RMW(7, 1) {
		t.Fatal("RMW on absent key succeeded")
	}
	w.Insert(7, 70)
	if !rmwer.RMW(7, 71) {
		t.Fatal("RMW on present key failed")
	}
	cv := set.(casser)
	if v, _ := cv.Get(ctx, 7); v != 71 {
		t.Fatalf("value after RMW = %d, want 71", v)
	}
	// BST: scans native, RMW falls back (no CasVal).
	bw := buildWorker(rt.NewBST(rt.NewCtx()), rt.NewCtx())
	if _, ok := bw.(workload.Scanner); !ok {
		t.Fatal("bst worker does not implement workload.Scanner")
	}
	if _, ok := bw.(workload.RMWer); ok {
		t.Fatal("bst worker claims native RMW without CasVal")
	}
}
