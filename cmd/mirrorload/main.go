// mirrorload drives YCSB workloads against a running mirrord server over
// the wire protocol and reports client-observed throughput and latency
// percentiles. Each connection is one client; by default it is synchronous
// (one outstanding operation), and -pipeline N keeps up to N frames in
// flight per client (HELLO handshake, clamped to the server's
// descriptor-ring depth). Every operation lands in an HDR-style histogram:
// the percentiles are over all operations, not a subsample.
//
// Example, against a local durable server:
//
//	mirrord -addr 127.0.0.1:7070 -engine mirror -media /tmp/mirror.img &
//	mirrorload -addr 127.0.0.1:7070 -workload A -conns 4 -duration 5s -prefill
//	mirrorload -addr 127.0.0.1:7070 -workload A -conns 1 -pipeline 8
//
// Client ids [base, base+conns) must be free (no other live client may
// share an id — descriptor rings are single-owner); -prefill uses id base-1.
// YCSB-E scans run as native SCAN frames (paged by wire.MaxScanKeys) and
// YCSB-F read-modify-writes as GET followed by a native RMW
// (compare-and-set) frame.
//
// The server's side of a session — ops, mutations, drain batches, flushes
// and fences — is the line mirrord prints on SIGTERM. Restarting mirrord
// with -maxbatch 1 (one fence per mutation) or another -engine under the
// same load gives the group-commit ablation and the cross-engine rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "mirrord address")
		workl    = flag.String("workload", "A", "YCSB workload letter (A..F)")
		conns    = flag.Int("conns", 4, "concurrent client connections")
		base     = flag.Int("base", 1, "first client id (ids [base, base+conns) must be unused)")
		keyRange = flag.Uint64("range", servingKeyRange, "key range [1, range]")
		duration = flag.Duration("duration", 5*time.Second, "measurement window")
		seed     = flag.Int64("seed", 1, "workload PRNG seed")
		prefill  = flag.Bool("prefill", false, "prefill half the key range first (client id base-1)")
		pipeline = flag.Int("pipeline", 1, "frames in flight per client (1: synchronous)")
	)
	flag.Parse()
	if len(*workl) != 1 {
		fmt.Fprintf(os.Stderr, "mirrorload: -workload wants a single letter A..F, got %q\n", *workl)
		os.Exit(2)
	}
	if err := checkKeyRange(*keyRange); err != nil {
		fmt.Fprintln(os.Stderr, "mirrorload: -range:", err)
		os.Exit(2)
	}
	if *base < 1 && *prefill {
		fmt.Fprintln(os.Stderr, "mirrorload: -prefill needs -base >= 1 (it uses client id base-1)")
		os.Exit(2)
	}
	if *prefill {
		n, err := servingPrefill(*addr, uint32(*base-1), *keyRange, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mirrorload: prefill:", err)
			os.Exit(1)
		}
		fmt.Printf("mirrorload: prefilled %d keys\n", n)
	}
	load, err := runServingLoad(servingSpec{
		Addr:     *addr,
		Workload: (*workl)[0],
		Conns:    *conns,
		BaseID:   uint32(*base),
		KeyRange: *keyRange,
		Duration: *duration,
		Seed:     *seed,
		Pipeline: *pipeline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirrorload:", err)
		os.Exit(1)
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	fmt.Printf("mirrorload: YCSB-%c conns=%d pipeline=%d range=%d: %d ops in %v (%.1f kops/s)\n",
		(*workl)[0]&^0x20, *conns, *pipeline, *keyRange, load.Ops, load.Elapsed.Round(time.Millisecond), load.Kops())
	fmt.Printf("mirrorload: latency µs: p50=%.1f p99=%.1f p999=%.1f max=%.1f\n",
		us(load.Hist.Percentile(50)), us(load.Hist.Percentile(99)),
		us(load.Hist.Percentile(99.9)), us(load.Hist.Max()))
}
