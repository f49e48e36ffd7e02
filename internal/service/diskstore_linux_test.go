package service

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

// spillChildDir names the environment variable that turns
// TestFailedSpillLeavesNoFile into its own child process, pointing it at the
// data dir to spill into.
const spillChildDir = "GECCO_SPILL_CHILD_DIR"

// TestFailedSpillLeavesNoFile spills an index in a child process whose file
// size limit (RLIMIT_FSIZE) is far below the index's encoded size, so the
// write fails part-way. The failure must count as a spill error, not a
// write, and must leave nothing under index/: a torn file there would be
// skipped by every later spill and rejected by every warm open. The limit is
// set in a child so it cannot cut the test binary's own writes short.
func TestFailedSpillLeavesNoFile(t *testing.T) {
	const limit = 4096
	if dir := os.Getenv(spillChildDir); dir != "" {
		d, err := openDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		x := eventlog.NewIndex(procgen.LoanLog(200, 1))
		var enc bytes.Buffer
		if err := eventlog.WriteIndex(&enc, x); err != nil {
			t.Fatal(err)
		}
		if enc.Len() <= limit {
			t.Fatalf("encoded index is %d bytes, must exceed the %d-byte limit", enc.Len(), limit)
		}
		signal.Ignore(syscall.SIGXFSZ) // a write past the limit then fails with EFBIG
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
			t.Fatal(err)
		}
		d.spillIndex("loan", x)
		if st := d.stats(); st.SpillErrors != 1 || st.SpillWrites != 0 {
			t.Fatalf("spillErrors=%d spillWrites=%d, want 1 and 0", st.SpillErrors, st.SpillWrites)
		}
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedSpillLeavesNoFile$", "-test.v")
	cmd.Env = append(os.Environ(), spillChildDir+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestFailedSpillLeavesNoFile") {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	left, err := os.ReadDir(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("failed spill left index/%s behind", e.Name())
	}
}
