// Package examples holds runnable demonstration programs. This smoke test
// builds and runs every one of them with short budgets, so a refactor that
// breaks an example (they are main packages, invisible to the library's
// unit tests) fails CI instead of rotting silently.
package examples

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// run executes `go run ./<dir> args...` from the examples directory with a
// hard deadline, returning combined output.
func run(t *testing.T, dir string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"run", "./" + dir}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run ./%s %s: %v\n%s", dir, strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestQuickstartSmoke(t *testing.T) {
	t.Parallel()
	out := run(t, "quickstart")
	if !strings.Contains(out, "recover") && !strings.Contains(out, "Recover") {
		t.Errorf("quickstart output never mentions recovery:\n%s", out)
	}
}

func TestKVStoreSmoke(t *testing.T) {
	t.Parallel()
	// No stdin: the built-in demo script exercises put/crash/recover/get.
	out := run(t, "kvstore")
	if out == "" {
		t.Error("kvstore demo produced no output")
	}
}

func TestCrashRecoverySmoke(t *testing.T) {
	t.Parallel()
	out := run(t, "crashrecovery", "-cycles", "2", "-workers", "2", "-keys", "16", "-seed", "1")
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("crashrecovery reported violations:\n%s", out)
	}
}

// TestCrashRecoveryKillSmoke is the real-process mode: each cycle a child
// writing through mirror.Open dies by SIGKILL and the parent reopens its
// media file.
func TestCrashRecoveryKillSmoke(t *testing.T) {
	t.Parallel()
	media := filepath.Join(t.TempDir(), "crashrecovery.img")
	out := run(t, "crashrecovery", "-media", media, "-cycles", "3", "-workers", "2", "-keys", "16", "-seed", "1")
	if strings.Contains(out, "VIOLATION") || !strings.Contains(out, "all 3 crash cycles passed") {
		t.Errorf("crashrecovery -media failed:\n%s", out)
	}
}

func TestTaskQueueSmoke(t *testing.T) {
	t.Parallel()
	out := run(t, "taskqueue", "-tasks", "200", "-workers", "2", "-crashes", "1", "-seed", "1")
	if strings.Contains(out, "LOST") || strings.Contains(out, "DUPLICATE") {
		t.Errorf("taskqueue reported lost or duplicated tasks:\n%s", out)
	}
}

func TestYCSBSmoke(t *testing.T) {
	t.Parallel()
	out := run(t, "ycsb",
		"-structure", "hashtable", "-range", "4096",
		"-threads", "2", "-duration", "10ms")
	if !strings.Contains(out, "hashtable") {
		t.Errorf("ycsb output never mentions the structure:\n%s", out)
	}
}
