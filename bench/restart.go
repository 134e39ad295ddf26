package main

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mirror/internal/server"
	"mirror/internal/wire"
)

// The restart phase of a served workload: the image each of the run's
// instances leaves behind is served by the real cmd/mirrord as a subprocess. A writer
// inserts new keys above the served key range; the process is SIGKILLed under
// it and re-executed with the same flags, again and again. kill -9 is an
// honest crash here because only fenced lines ever reach the mmap. Every
// incarnation must serve exactly the keys the workload left plus every INSERT
// acknowledged since; restart_ms is the time from exec to the first
// successful GET.

const (
	restartCycles  = 2                     // kills per instance; restartCycles+1 incarnations are timed
	restartWrite   = 50 * time.Millisecond // the writer's time before each kill
	restartKeyBits = 24                    // the writer's keys are a seed-scrambled walk of restartKeyBase + [1, 2^24]
	restartKeyBase = serveKeyRange         // above every key the prefill and the load touch
	restartKeyMax  = restartKeyBase + 1<<restartKeyBits
	writerClient   = firstClient + 2 // the load's clients use the ids below it
)

// keySet is a bitset over the keys 0..restartKeyMax.
type keySet []uint64

func newKeySet() keySet       { return make(keySet, restartKeyMax/64+1) }
func (s keySet) add(k uint64) { s[k/64] |= 1 << (k % 64) }

// mirrord is one running incarnation.
type mirrord struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	addr  string
	start time.Time
}

// buildMirrord compiles cmd/mirrord of the checkout into the work directory.
func (e *env) buildMirrord() (string, error) {
	bin := filepath.Join(e.work, "mirrord")
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin, "./cmd/mirrord")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mirrord: %v\n%s", err, out)
	}
	return bin, nil
}

// startMirrord executes the server on an existing image and waits for its
// readiness line. The child is killed when the context ends or this process
// dies.
func (e *env) startMirrord(bin, media string) (*mirrord, error) {
	cmd := exec.CommandContext(e.ctx, bin, "-addr", "127.0.0.1:0", "-media", media, "-words", strconv.Itoa(e.serverConfig(media).Words))
	dieWithParent(cmd)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	m := &mirrord{cmd: cmd, out: bufio.NewReader(pipe), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// "mirrord: serving <fresh|attached> on <addr> (...)"
	line, err := m.out.ReadString('\n')
	f := strings.Fields(line)
	if err != nil || len(f) < 5 || f[1] != "serving" {
		m.kill()
		return nil, fmt.Errorf("mirrord did not come up: %q %v", line, err)
	}
	if f[2] != "attached" {
		m.kill()
		return nil, fmt.Errorf("mirrord came up %s on %s, want attached", f[2], media)
	}
	m.addr = f[4]
	return m, nil
}

// kill SIGKILLs the incarnation and waits until it is gone.
func (m *mirrord) kill() {
	m.cmd.Process.Kill()
	io.Copy(io.Discard, m.out)
	m.cmd.Wait()
}

// writerKey is the i-th key the writer inserts: an odd multiplier walks all
// of restartKeyBase + [1, 2^restartKeyBits] without repeating, in an order
// the seed decides.
func writerKey(seed int64, i uint64) uint64 {
	mult := uint64(seed)*2654435761 | 1
	return restartKeyBase + (i*mult)&(1<<restartKeyBits-1) + 1
}

// scanKeys reads the whole served set through the wire into a key set,
// checking order and values; it is the state at rest that the count check
// and the restart phase compare against.
func scanKeys(addr string, id uint32, t *tally) (set keySet, keys int, first uint64, err error) {
	cl, err := server.Dial(addr, id)
	if err != nil {
		return nil, 0, 0, err
	}
	defer cl.Close()
	set = newKeySet()
	start := uint64(1)
	for {
		pairs, err := cl.Scan(start, wire.MaxScanKeys)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, kv := range pairs {
			if kv.Key < start || kv.Val != kv.Key || kv.Key > restartKeyMax {
				t.fail("full scan: pair (%d,%d) at start %d", kv.Key, kv.Val, start)
				continue
			}
			if keys == 0 {
				first = kv.Key
			}
			set.add(kv.Key)
			keys++
			start = kv.Key + 1
		}
		if len(pairs) < wire.MaxScanKeys {
			return set, keys, first, nil
		}
	}
}

// killCycles runs the restart phase with the mirrord binary bin on the image
// at media, which a closed instance left holding exactly the keys in want
// (key is one of them). It
// returns exec → first GET of every incarnation, in milliseconds, and how
// many acknowledged keys some incarnation did not serve.
func (e *env) killCycles(bin, media string, want keySet, key uint64, cycles int, t *tally) (firstGetMS []float64, lost int, err error) {
	var m *mirrord
	defer func() {
		if m != nil {
			m.kill()
		}
	}()
	var written uint64 // the writer's writes 0..written-1 are acknowledged

	// writeUntilKilled inserts new keys one acknowledged INSERT at a time for
	// restartWrite and then has the server killed under it. After the first
	// kill, the first write repeats the one that was in flight, with its old
	// sequence number: it may have landed, so either answer is right.
	writeUntilKilled := func(replayFirst bool) error {
		cl, err := server.Dial(m.addr, writerClient)
		if err != nil {
			return err
		}
		defer cl.Close()
		cl.SetSeq(written) // one sequence number per write so far
		killed := make(chan struct{})
		go func(m *mirrord) {
			select {
			case <-time.After(restartWrite):
			case <-e.ctx.Done():
			}
			m.kill() // one client still writing
			close(killed)
		}(m)
		for from := written; ; written++ {
			k := writerKey(e.seed, written)
			ok, err := cl.Insert(k, k)
			if err != nil {
				break // the server went away under this write
			}
			t.attempted++
			if !ok && !(replayFirst && written == from) {
				t.fail("restart: INSERT of new key %d answered present", k)
			}
			want.add(k)
		}
		<-killed
		m = nil
		return e.ctx.Err()
	}

	for cycle := 0; ; cycle++ {
		// Exec with the same flags; time to the first successful GET.
		if m, err = e.startMirrord(bin, media); err != nil {
			return nil, 0, err
		}
		cl, err := server.Dial(m.addr, prefillClient)
		if err != nil {
			return nil, 0, err
		}
		v, ok, err := cl.Get(key)
		firstGetMS = append(firstGetMS, ms(time.Since(m.start)))
		cl.Close()
		t.attempted++
		if err != nil || !ok || v != key {
			t.fail("restart cycle %d: first GET %d = (%d, %v, %v)", cycle, key, v, ok, err)
		}
		// It must serve exactly what was stored before plus every write
		// acknowledged so far; the write in flight at the last kill may be
		// there too.
		have, _, _, err := scanKeys(m.addr, prefillClient, t)
		if err != nil {
			return nil, 0, err
		}
		inFlight := writerKey(e.seed, written)
		for i := range want {
			t.attempted += int64(bits.OnesCount64(want[i]))
			missing, extra := want[i]&^have[i], have[i]&^want[i]
			if cycle > 0 && inFlight/64 == uint64(i) {
				extra &^= 1 << (inFlight % 64)
			}
			for ; missing != 0; missing &= missing - 1 {
				lost++
				t.fail("restart cycle %d: acknowledged key %d is gone", cycle, i*64+bits.TrailingZeros64(missing))
			}
			for ; extra != 0; extra &= extra - 1 {
				t.fail("restart cycle %d: key %d is served and was never acknowledged", cycle, i*64+bits.TrailingZeros64(extra))
			}
		}
		if cycle == cycles {
			return firstGetMS, lost, nil
		}
		if err := writeUntilKilled(cycle > 0); err != nil {
			return nil, 0, err
		}
	}
}
