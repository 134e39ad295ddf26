// Command bench is the repository's one benchmark: four named workloads
// over mirrord's serving tier and the Mirror library, end-to-end metrics
// measured with tracing off, and a second counted + traced pass that
// attributes cost to the layers from outside them. See README.md.
//
//	bash bench/run.sh                         # every workload, both passes
//	bash bench/run.sh --workload serve-a-sync --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mirror/internal/dwcas"
)

// env is what one invocation fixes for every workload it runs.
type env struct {
	ctx   context.Context
	root  string // the checkout: BENCHMARK.json lives here
	work  string // scratch directory under <root>/.bench_build, removed on exit
	spec  *benchSpec
	seed  int64
	short bool
	log   io.Writer

	warm        time.Duration // per instance, before its measured windows
	window      time.Duration // one measured window of the timed pass
	windows     int           // measured windows per run, over all its instances
	layerWindow time.Duration // the real-shape window of the counted + traced pass
	setups      int           // instances per run, each set up and measured; setup_s is the median
	restarts    int           // kill -9 cycles per served instance; restart_ms is the fastest incarnation of the run
	counted     int           // requests in the counted pass
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.log, format, args...) }

// check is one named correctness check printed with the metrics.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a pass reports besides its metrics.
type outcome struct {
	tally
	checks []check
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{name, ok, detail})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0
}

// workloadDef names a workload's two passes.
type workloadDef struct {
	name   string
	e2e    func(*env, *emitter) (*outcome, error)
	layers func(*env, *emitter) (*outcome, error)
}

func workloadDefs() []workloadDef {
	var defs []workloadDef
	for _, sh := range serveShapes {
		sh := sh
		defs = append(defs, workloadDef{
			name:   sh.name,
			e2e:    func(e *env, em *emitter) (*outcome, error) { return e.serveE2E(sh, em) },
			layers: func(e *env, em *emitter) (*outcome, error) { return e.serveLayers(sh, em) },
		})
	}
	return append(defs, workloadDef{name: "lib-hash-a", e2e: (*env).libE2E, layers: (*env).libLayers})
}

// result is the last line of standard output, exactly as the contract
// spells it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// runPass runs one pass of one workload, prints its metrics and checks, and
// returns the record.
func (e *env) runPass(def workloadDef, trace int) (record, error) {
	defs, pass := e.spec.EndToEnd, def.e2e
	if trace == 1 {
		defs, pass = e.spec.PerLayer, def.layers
	}
	em := newEmitter(defs)
	e.printf("== %s, seed %d, %s\n", def.name, e.seed, map[int]string{0: "timed pass (tracing off)", 1: "counted + traced pass"}[trace])
	out, err := pass(e, em)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", def.name, err)
	}
	if trace == 1 {
		em.emit("loadgen.failed_share", float64(out.failed)/float64(max(out.attempted, 1)))
	}
	if err := em.finish(); err != nil {
		return record{}, fmt.Errorf("%s: %w", def.name, err)
	}
	for _, n := range em.order {
		m := em.metrics[n]
		note := ""
		if em.notAppl[n] {
			note = "  (n/a on this workload)"
		}
		e.printf("%-40s %14.4f %s%s\n", n, m.Value, m.Unit, note)
	}
	for _, c := range out.checks {
		e.printf("check %s: %s  %s\n", c.name, map[bool]string{true: "ok", false: "FAILED"}[c.ok], c.detail)
	}
	e.printf("requests attempted %d, failed %d", out.attempted, out.failed)
	if out.firstErr != "" {
		e.printf(" (first: %s)", out.firstErr)
	}
	e.printf("\n")
	return record{
		Workload: def.name, Seed: e.seed, Trace: trace,
		result: result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: em.metrics},
	}, nil
}

// hostRecord prints where the numbers come from and warns about a host that
// cannot carry them.
func (e *env) hostRecord() {
	e.printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, dwcas native %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, dwcas.Native())
	e.printf("host: media directory %s on %s; loopback TCP, client and server share one process (restart phase: mirrord as a subprocess)\n",
		e.work, fsName(e.work))
	if runtime.NumCPU() < 2 {
		e.printf("WARNING: one CPU: client, readers and workers share it, so latency and scaling numbers describe the scheduler, not the system\n")
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = fs.Float64("seconds", 0, "measured seconds per run, split into windows of 100 ms (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", -1, "0: timed pass only; 1: counted + traced pass only; -1: both")
		short    = fs.Bool("short", false, "smoke-test sizes: six windows, small key ranges, 2000 counted requests")
		root     = fs.String("root", "", "checkout root (default: the directory above that holds BENCHMARK.json)")
		outPath  = fs.String("out", "", "append one JSON record per pass to this file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *root == "" {
		r, err := findRoot(".")
		if err != nil {
			return fail(err)
		}
		*root = r
	}
	spec, err := loadSpec(*root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		return fail(fmt.Errorf("bad arguments (see -h)"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workParent := filepath.Join(*root, ".bench_build", "work")
	if err := os.MkdirAll(workParent, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(workParent, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	e := &env{
		ctx: ctx, root: *root, work: work, spec: spec, seed: *seed, short: *short, log: stdout,
		warm: 600 * time.Millisecond, window: windowLen, windows: int(*seconds * float64(time.Second) / float64(windowLen)),
		layerWindow: time.Duration(*seconds / 5 * float64(time.Second)),
		setups:      5, restarts: restartCycles, counted: countedRequests,
	}
	if *short {
		e.warm, e.windows, e.layerWindow = 100*time.Millisecond, 6, 200*time.Millisecond
		e.setups, e.restarts, e.counted = 1, 2, countedRequestsShort
	}
	if e.windows < 4*e.setups {
		return fail(fmt.Errorf("-seconds %v is too short: an instance needs at least four windows of %v", *seconds, windowLen))
	}
	e.hostRecord()

	var selected []workloadDef
	for _, d := range workloadDefs() {
		if *workload == "" || *workload == d.name {
			selected = append(selected, d)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	passes := []int{0, 1}
	if *trace >= 0 {
		passes = []int{*trace}
	}
	var recs []record
	for _, d := range selected {
		for _, tr := range passes {
			if ctx.Err() != nil {
				return fail(ctx.Err())
			}
			rec, err := e.runPass(d, tr)
			if err != nil {
				return fail(err)
			}
			recs = append(recs, rec)
		}
	}
	if *outPath != "" {
		if err := appendRecords(*outPath, recs); err != nil {
			return fail(err)
		}
	}
	// The last line: one pass as it is; several passes folded into one
	// object whose metric names carry the workload.
	final := recs[0].result
	if len(recs) > 1 {
		final = result{Correct: true, Metrics: map[string]metric{}}
		for _, r := range recs {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for n, m := range r.Metrics {
				final.Metrics[r.Workload+"/"+n] = m
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
