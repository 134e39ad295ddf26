// crashrecovery tortures a durable structure with repeated mid-workload
// power failures: concurrent writers run until a random freeze, the crash
// is taken under a random eviction adversary, recovery runs, and the
// per-key single-writer histories are verified — durable linearizability,
// live, across many crash cycles on one persistent heap.
//
// With -media <file> the failure is real process death instead: each cycle
// re-executes this program as a child that opens the file with mirror.Open
// and writes, reporting every acknowledged operation on a pipe; the parent
// SIGKILLs the child mid-workload, reopens the file itself, and checks the
// same per-key truth.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mirror"
	"mirror/internal/pmem"
)

// childSeed carries a child's seed; its presence makes the process a child.
const childSeed = "CRASHRECOVERY_CHILD_SEED"

// mediaOptions configure the runtime over -media, in child and parent alike.
var mediaOptions = mirror.Options{Words: 1 << 20}

func main() {
	var (
		cycles  = flag.Int("cycles", 10, "crash cycles")
		workers = flag.Int("workers", 4, "concurrent writers")
		keysPer = flag.Int("keys", 64, "keys owned per writer")
		seed    = flag.Int64("seed", 1, "base seed (fixed default for reproducible runs)")
		media   = flag.String("media", "", "media file: kill a child process instead of simulating the crash")
	)
	flag.Parse()

	switch s := os.Getenv(childSeed); {
	case s != "":
		cs, _ := strconv.ParseInt(s, 10, 64)
		child(*media, *workers, *keysPer, cs)
	case *media != "":
		killCycles(*media, *cycles, *workers, *keysPer, *seed)
	default:
		simulated(*cycles, *workers, *keysPer, *seed)
	}
	fmt.Printf("all %d crash cycles passed\n", *cycles)
}

// nextOp draws writer w's next operation: a key it owns, insert or delete.
func nextOp(r *rand.Rand, w, keysPer int) (key uint64, ins bool) {
	key = uint64(w*keysPer+1) + uint64(r.Intn(keysPer))
	return key, r.Intn(2) == 0
}

// check verifies every key against the durable truth; the cut operations
// may have gone either way, so their keys adopt whatever the set says. It
// exits on a violation.
func check(cycle int, set mirror.Set, ctx *mirror.Ctx, keys int, expected, cut map[uint64]bool) {
	violations := 0
	for key := uint64(1); key <= uint64(keys); key++ {
		got := set.Contains(ctx, key)
		want, known := expected[key]
		if cut[key] {
			expected[key] = got // adopt the surviving outcome
			continue
		}
		if known && got != want {
			fmt.Printf("cycle %d: VIOLATION key %d: present=%v, want %v\n",
				cycle, key, got, want)
			violations++
		}
		if !known && got {
			fmt.Printf("cycle %d: VIOLATION phantom key %d\n", cycle, key)
			violations++
		}
	}
	if violations > 0 {
		fmt.Println("durable linearizability FAILED")
		os.Exit(1)
	}
}

func live(expected map[uint64]bool) int {
	n := 0
	for _, p := range expected {
		if p {
			n++
		}
	}
	return n
}

// simulated runs the crash cycles in process: freeze, simulated power
// failure under a random eviction policy, Recover.
func simulated(cycles, workers, keysPer int, seed int64) {
	rt := mirror.New(mirror.Options{Words: 1 << 22})
	ctx := rt.NewCtx()
	set := rt.NewSkipList(ctx)
	rng := rand.New(rand.NewSource(seed))

	// expected holds the durable truth: key -> present.
	expected := make(map[uint64]bool)
	var mu sync.Mutex

	for cycle := 1; cycle <= cycles; cycle++ {
		inflight := make([]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil && r != pmem.ErrFrozen {
						panic(r)
					}
				}()
				c := rt.NewCtx()
				lrng := rand.New(rand.NewSource(seed))
				for i := 0; i < 50000; i++ {
					key, ins := nextOp(lrng, w, keysPer)
					inflight[w] = key
					var done bool
					if ins {
						done = set.Insert(c, key, key)
					} else {
						done = set.Delete(c, key)
					}
					if done {
						mu.Lock()
						expected[key] = ins
						mu.Unlock()
					}
					inflight[w] = 0
				}
			}(w, rng.Int63())
		}
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		rt.Freeze()
		wg.Wait()

		policy := mirror.CrashPolicy(rng.Intn(3))
		rt.Crash(policy, rng.Int63())
		rt.Recover()
		ctx = rt.NewCtx()

		cut := make(map[uint64]bool)
		for _, key := range inflight {
			cut[key] = true
		}
		check(cycle, set, ctx, workers*keysPer, expected, cut)
		fmt.Printf("cycle %2d: policy=%d crash+recovery ok, %d keys live\n",
			cycle, policy, live(expected))
	}
}

// child writes through the runtime over media until it is killed. Writer w
// draws its operations from seed+w and prints "w done" once each returns —
// one write per line, before its next operation begins — so the parent can
// replay the stream and knows every acknowledged outcome.
func child(media string, workers, keysPer int, seed int64) {
	rt, err := mirror.Open(media, mediaOptions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	set := rt.NewSkipList(rt.NewCtx())
	fmt.Println("ready")
	for w := 0; w < workers; w++ {
		go func(w int) {
			c := rt.NewCtx()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for {
				key, ins := nextOp(r, w, keysPer)
				var done bool
				if ins {
					done = set.Insert(c, key, key)
				} else {
					done = set.Delete(c, key)
				}
				fmt.Printf("%d %t\n", w, done)
			}
		}(w)
	}
	select {} // until killed
}

// killCycles runs each cycle as a child process killed by SIGKILL, then
// reopens the media and checks it.
func killCycles(media string, cycles, workers, keysPer int, seed int64) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "crashrecovery: "+format+"\n", args...)
		os.Exit(1)
	}
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	// Start from an empty image: media without its sidecar is wiped.
	os.Remove(media + ".meta")
	rng := rand.New(rand.NewSource(seed))
	expected := make(map[uint64]bool)
	for cycle := 1; cycle <= cycles; cycle++ {
		cs := rng.Int63()
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), childSeed+"="+strconv.FormatInt(cs, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fail("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fail("%v", err)
		}
		lines := bufio.NewScanner(out)
		if !lines.Scan() || lines.Text() != "ready" {
			fail("cycle %d: child did not come up", cycle)
		}
		time.AfterFunc(time.Duration(20+rng.Intn(200))*time.Millisecond, func() { cmd.Process.Kill() })

		// Replay each writer's stream; an acknowledged op that took effect
		// is durable truth.
		streams := make([]*rand.Rand, workers)
		for w := range streams {
			streams[w] = rand.New(rand.NewSource(cs + int64(w)))
		}
		acked := 0
		for lines.Scan() {
			var w int
			var done bool
			if _, err := fmt.Sscanf(lines.Text(), "%d %t", &w, &done); err != nil || w < 0 || w >= workers {
				fail("cycle %d: bad ack %q", cycle, lines.Text())
			}
			if key, ins := nextOp(streams[w], w, keysPer); done {
				expected[key] = ins
			}
			acked++
		}
		cmd.Wait()
		if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
			fail("cycle %d: child exited on its own (%v)", cycle, cmd.ProcessState)
		}
		// Each writer's next operation is the one the kill cut — started or
		// not, acknowledged or not.
		cut := make(map[uint64]bool)
		for w, r := range streams {
			key, _ := nextOp(r, w, keysPer)
			cut[key] = true
		}

		rt, err := mirror.Open(media, mediaOptions)
		if err != nil {
			fail("cycle %d: reopen: %v", cycle, err)
		}
		ctx := rt.NewCtx()
		check(cycle, rt.NewSkipList(ctx), ctx, workers*keysPer, expected, cut)
		rt.Close()
		fmt.Printf("cycle %2d: killed after %d acknowledged ops, reopen+recovery ok, %d keys live\n",
			cycle, acked, live(expected))
	}
}
