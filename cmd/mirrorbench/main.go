// Command mirrorbench regenerates the paper's evaluation figures. Each
// panel of Figure 6 (volatile replica on DRAM) and Figure 7 (both replicas
// on NVMM) is reproduced as a text table of native throughput in Mops/s,
// followed by the same points' modeled ns/op: a counted pass's exact
// device counts priced by the DRAM/NVMM cost tables, identical for a seed
// on any machine.
//
// Usage:
//
//	mirrorbench -list                 # enumerate the panels
//	mirrorbench -panel fig6a          # run one panel
//	mirrorbench -all                  # run everything (slow)
//	mirrorbench -panel fig6d -duration 2s -scale 32 -threads 1,2,4,8,16
//	mirrorbench -recovery -sizes 1000,10000 -par 1,4   # recovery-pipeline sweep
//	mirrorbench -json BENCH_1.json    # machine-readable engine×structure matrix
//	mirrorbench -json BENCH_2.json -recovery   # matrix plus recovery section
//	mirrorbench -json BENCH_3.json -detect     # detectable-operation overhead ablation
//	mirrorbench -panel fig6d -dist zipfian -skew 0.99  # skewed panel
//	mirrorbench -checkjson BENCH_1.json  # re-parse and validate a report
//
// Native numbers depend on the host; the shape — who wins, by what
// factor, where the crossovers fall — is what reproduces the paper.
// Everything here runs in memory; served load is measured by bench/'s
// serve-* workloads and by mirrord + mirrorload.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mirror/internal/engine"
	"mirror/internal/harness"
	"mirror/internal/workload"
)

// parseEngines maps comma-separated engine display names (as printed in the
// paper's legends: OrigDRAM, OrigNVMM, Izraelevitz, NVTraverse, Mirror,
// MirrorNVMM) to kinds; empty means all.
func parseEngines(s string) ([]engine.Kind, error) {
	if s == "" {
		return nil, nil
	}
	var kinds []engine.Kind
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		found := false
		for _, k := range engine.Kinds() {
			if strings.EqualFold(k.String(), name) {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown engine %q", name)
		}
	}
	return kinds, nil
}

func main() {
	var (
		panelID  = flag.String("panel", "", "panel to run (e.g. fig6a); see -list")
		all      = flag.Bool("all", false, "run every panel")
		listOnly = flag.Bool("list", false, "list panels and exit")
		duration = flag.Duration("duration", 200*time.Millisecond, "measurement window per point")
		scale    = flag.Int("scale", 32, "divisor for the paper's 8M/32M structure sizes")
		threads  = flag.String("threads", "1,2,4,8,16", "comma-separated thread sweep")
		seed     = flag.Int64("seed", 1, "workload PRNG seed")
		space    = flag.String("space", "", "print the per-engine memory footprint for a structure (list|hashtable|bst|skiplist)")
		chart    = flag.Bool("chart", false, "render panels as ASCII charts as well")
		recovery = flag.Bool("recovery", false, "measure crash-recovery time by engine, size, and parallelism")
		sizesF   = flag.String("sizes", "1000,10000,100000", "comma-separated structure sizes for -recovery")
		parsF    = flag.String("par", "1", "comma-separated recovery-pipeline parallelism sweep for -recovery")
		jsonOut  = flag.String("json", "", "run the engine×structure benchmark matrix and write it to this file")
		checkIn  = flag.String("checkjson", "", "parse and validate a BENCH_<n>.json report, then exit")
		structsF = flag.String("structures", "", "comma-separated structure filter for -json (list,hashtable,bst,skiplist)")
		enginesF = flag.String("engines", "", "comma-separated engine filter for -json (e.g. Mirror,NVTraverse)")
		noElide  = flag.Bool("noelide", false, "disable flush elision / fence coalescing (ablation baseline)")
		detect   = flag.Bool("detect", false, "route every operation through a detectable bracket (descriptor-overhead ablation)")
		distF    = flag.String("dist", "", "key distribution: uniform (default), zipfian, or hotspot")
		skew     = flag.Float64("skew", 0, "distribution parameter: zipfian theta (default 0.99) or hotspot access fraction (default 0.9)")
	)
	flag.Parse()

	if *checkIn != "" {
		data, err := os.ReadFile(*checkIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: %v\n", err)
			os.Exit(1)
		}
		r, err := harness.ParseReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: %s: %v\n", *checkIn, err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%d points, schema %s)\n", *checkIn, len(r.Points), r.Schema)
		return
	}

	if *space != "" {
		fmt.Print(harness.MeasureSpace(*space, 10000).Format())
		return
	}
	parseInts := func(flagName, s string) []int {
		var out []int
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "mirrorbench: bad -%s entry %q\n", flagName, part)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	if *recovery && *jsonOut == "" {
		fmt.Print(harness.MeasureRecovery(parseInts("sizes", *sizesF), parseInts("par", *parsF)).Format())
		return
	}

	if *listOnly {
		for _, p := range harness.Panels() {
			fmt.Printf("%-7s %s\n", p.ID, p.Title)
		}
		return
	}

	if *distF != "" {
		known := false
		for _, d := range workload.Dists() {
			if d == *distF {
				known = true
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "mirrorbench: unknown -dist %q (want one of %s)\n",
				*distF, strings.Join(workload.Dists(), ", "))
			os.Exit(2)
		}
	}
	opts := harness.Options{
		Duration: *duration,
		Scale:    *scale,
		Seed:     *seed,
		NoElide:  *noElide,
		Detect:   *detect,
		Dist:     *distF,
		Skew:     *skew,
	}
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "mirrorbench: bad thread count %q\n", part)
			os.Exit(2)
		}
		opts.Threads = append(opts.Threads, n)
	}

	if *jsonOut != "" {
		var structs []string
		if *structsF != "" {
			for _, part := range strings.Split(*structsF, ",") {
				structs = append(structs, strings.TrimSpace(part))
			}
		}
		kinds, err := parseEngines(*enginesF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: %v\n", err)
			os.Exit(2)
		}
		report := harness.RunBenchMatrix(opts, structs, kinds, opts.Threads)
		if *recovery {
			report.Recovery = harness.RecoveryPoints(
				harness.MeasureRecovery(parseInts("sizes", *sizesF), parseInts("par", *parsF)))
		}
		data, err := harness.MarshalReport(report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mirrorbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", *jsonOut, len(report.Points))
		return
	}

	fmt.Println(harness.EnvironmentNote())
	show := func(p harness.Panel) {
		tab := p.Run(opts)
		fmt.Print(tab.Format())
		if *chart {
			fmt.Println()
			fmt.Print(tab.Chart())
		}
	}
	switch {
	case *all:
		for _, p := range harness.Panels() {
			fmt.Println()
			show(p)
		}
	case *panelID != "":
		p, ok := harness.Find(*panelID)
		if !ok {
			fmt.Fprintf(os.Stderr, "mirrorbench: unknown panel %q (try -list)\n", *panelID)
			os.Exit(2)
		}
		show(p)
	default:
		fmt.Fprintln(os.Stderr, "mirrorbench: need -panel, -all, or -list")
		os.Exit(2)
	}
}
