// mirrord serves a durable key-value set and FIFO queue over TCP, backed by
// one of the repository's durable persistence engines. See internal/server
// for the protocol and the cross-client fence-batching write path.
//
// With -media the fenced image lives in a file-backed mapping: kill -9 the
// process, start it again with the same flags, and it attaches to the image,
// runs recovery, and serves the pre-crash state — unresolved clients ask
// DETECT for the fate of their cut operations.
//
// Example:
//
//	mirrord -addr 127.0.0.1:7070 -engine mirror -media /tmp/mirror.img
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mirror/internal/engine"
	"mirror/internal/server"
)

var engineKinds = map[string]engine.Kind{
	"izraelevitz": engine.Izraelevitz,
	"nvtraverse":  engine.NVTraverse,
	"mirror":      engine.MirrorDRAM,
	"mirrornvmm":  engine.MirrorNVMM,
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		kindName = flag.String("engine", "mirror", "izraelevitz|nvtraverse|mirror|mirrornvmm")
		media    = flag.String("media", "", "media image file (empty: in-memory, dies with the process)")
		words    = flag.Int("words", 1<<20, "device capacity in 8-byte words")
		ring     = flag.Int("ring", 0, "per-client descriptor-ring depth (0: engine default)")
		clients  = flag.Int("clients", 64, "descriptor rings (max client id + 1)")
		workers  = flag.Int("workers", 2, "workers, one engine context each (client id mod workers)")
		nobatch  = flag.Bool("nobatch", false, "ablation: one fence per mutation (no group commit)")
		maxBatch = flag.Int("maxbatch", 128, "max operations per drain batch")
	)
	flag.Parse()

	kind, ok := engineKinds[*kindName]
	if !ok {
		fmt.Fprintf(os.Stderr, "mirrord: unknown engine %q\n", *kindName)
		os.Exit(2)
	}
	s, err := server.New(server.Config{
		Kind:      kind,
		Words:     *words,
		Ring:      *ring,
		Clients:   *clients,
		Workers:   *workers,
		MediaPath: *media,
		NoBatch:   *nobatch,
		MaxBatch:  *maxBatch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirrord:", err)
		os.Exit(1)
	}
	if err := s.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "mirrord:", err)
		os.Exit(1)
	}
	mode := "fresh"
	if s.Attached() {
		mode = "attached"
	}
	// The "serving" line is the readiness signal test harnesses wait for.
	fmt.Printf("mirrord: serving %s on %s (engine %s, %s)\n", mode, s.Addr(), kind, *kindName)
	if s.Attached() {
		r := s.Recovery()
		fmt.Printf("mirrord: attach restored %d live words in %d objects of %d: open %.2f ms, recover %.2f ms at %d workers, repair %.2f ms, verify %.2f ms\n",
			r.LiveWords, r.Objects, r.Words, ms(r.Open), ms(r.Recover), r.Workers, ms(r.Repair), ms(r.Verify))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	s.Close()
	st := s.Stats()
	fmt.Printf("mirrord: served %d ops (%d mutations, %d replays) in %d batches, %.2f frames/batch, %d flushes, %d fences\n",
		st.Ops, st.Mutations, st.Replays, st.Batches, float64(st.Ops)/float64(max(st.Batches, 1)), st.Flushes, st.Fences)
}
