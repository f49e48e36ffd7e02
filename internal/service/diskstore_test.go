package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/xes"
)

func xesBytes(t *testing.T, x *eventlog.Index) []byte {
	t.Helper()
	if x == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := xes.WriteIndex(&buf, x); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// solveJob solves set on sess the way the service's jobs do.
func solveJob(t *testing.T, sess *core.Session, set *constraints.Set, cfg core.Config) *JobResult {
	t.Helper()
	res, abstracted, err := sess.SolveIndex(context.Background(), set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newJobResult(res, abstracted)
}

// solveLog is solveJob on a fresh session of log.
func solveLog(t *testing.T, log *eventlog.Log, set *constraints.Set, cfg core.Config) *JobResult {
	t.Helper()
	sess, err := core.NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	return solveJob(t, sess, set, cfg)
}

// sameResult compares every field of a result the HTTP layer serialises.
func sameResult(t *testing.T, got, want *JobResult) {
	t.Helper()
	if got.Feasible != want.Feasible || got.Distance != want.Distance ||
		got.NumCandidates != want.NumCandidates || got.ConstraintChecks != want.ConstraintChecks ||
		got.SolverNodes != want.SolverNodes || got.CandidatesTimedOut != want.CandidatesTimedOut {
		t.Fatalf("result scalars diverged:\n got %+v\nwant %+v", got, want)
	}
	if len(got.GroupClasses) != len(want.GroupClasses) {
		t.Fatalf("GroupClasses: %d groups vs %d", len(got.GroupClasses), len(want.GroupClasses))
	}
	for i := range got.GroupClasses {
		if strings.Join(got.GroupClasses[i], "|") != strings.Join(want.GroupClasses[i], "|") {
			t.Fatalf("GroupClasses[%d] diverged: %v vs %v", i, got.GroupClasses[i], want.GroupClasses[i])
		}
	}
	if strings.Join(got.Grouping.Names, "|") != strings.Join(want.Grouping.Names, "|") {
		t.Fatalf("Grouping.Names diverged: %v vs %v", got.Grouping.Names, want.Grouping.Names)
	}
	if !bytes.Equal(xesBytes(t, got.Abstracted), xesBytes(t, want.Abstracted)) {
		t.Fatal("abstracted logs serialise differently")
	}
}

// TestSolveIdenticalAfterOpenIndex is the tentpole acceptance check at the
// session level: a session rebuilt from a written-and-reopened index file
// must solve to byte-identical abstraction results as the session built
// directly from the log.
func TestSolveIdenticalAfterOpenIndex(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := mustSet(t, "distinct(role) <= 1\n|g| <= 3")
	cfg := core.Config{Mode: core.DFGUnbounded}

	built, err := core.NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	var gidx bytes.Buffer
	if err := eventlog.WriteIndex(&gidx, built.Index()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log.gidx")
	if err := os.WriteFile(path, gidx.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := eventlog.OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := core.NewSessionFromIndex(x)
	if err != nil {
		t.Fatal(err)
	}

	want := solveJob(t, built, set, cfg)
	got := solveJob(t, opened, mustSet(t, "distinct(role) <= 1\n|g| <= 3"), cfg)
	got.Timings, want.Timings = core.Timings{}, core.Timings{}
	sameResult(t, got, want)
}

// TestStoredResultRoundTrip pins the persisted-result envelope: every field
// the serving layer returns survives save → load, and infeasible results
// are refused.
func TestStoredResultRoundTrip(t *testing.T) {
	d, err := openDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := solveLog(t, procgen.RunningExampleTable1(), mustSet(t, "distinct(role) <= 1"), core.Config{Mode: core.DFGUnbounded})
	if !res.Feasible {
		t.Fatal("fixture must be feasible")
	}
	res.Timings = core.Timings{Candidates: 3 * time.Millisecond, Solve: time.Second, Abstract: 7}

	d.saveResult("roundtrip", res)
	data, err := os.ReadFile(d.resultPath("roundtrip"))
	if err != nil {
		t.Fatalf("saveResult wrote nothing: %v", err)
	}
	got, err := loadResult(data)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, res)
	if got.Timings != res.Timings {
		t.Fatalf("timings diverged: %+v vs %+v", got.Timings, res.Timings)
	}

	d.saveResult("infeasible", &JobResult{Feasible: false})
	if _, err := os.Stat(d.resultPath("infeasible")); !os.IsNotExist(err) {
		t.Fatal("infeasible result must not be persisted")
	}
}

// TestPersistenceAcrossRestart is the end-to-end restart contract: a second
// service on the same data dir serves the first one's result from the
// reloaded cache, and warm-opens the spilled index for fresh constraint
// sets instead of rebuilding.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	log := procgen.RunningExampleTable1()
	cfg := core.Config{Mode: core.DFGUnbounded}

	svc1 := New(Options{DataDir: dir})
	want, meta, err := svc1.Do(context.Background(), Request{Index: eventlog.NewIndex(log), Constraints: mustSet(t, "distinct(role) <= 1"), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cached || !want.Feasible {
		t.Fatalf("first run: cached=%v feasible=%v", meta.Cached, want.Feasible)
	}
	svc1.Close() // waits for the async result save, spills the live session

	if st := svc1.Stats().Disk; st == nil || st.ResultsSaved != 1 || st.IndexFiles != 1 {
		t.Fatalf("after close: disk stats = %+v, want 1 result saved and 1 index file", st)
	}

	svc2 := New(Options{DataDir: dir})
	defer svc2.Close()
	if st := svc2.Stats().Disk; st == nil || st.ResultsLoaded != 1 {
		t.Fatalf("restart: disk stats = %+v, want 1 result loaded", st)
	}

	// Same request: served from the reloaded result cache, no pipeline run.
	got, meta, err := svc2.Do(context.Background(), Request{Index: eventlog.NewIndex(log), Constraints: mustSet(t, "distinct(role) <= 1"), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Cached {
		t.Fatal("restarted service must serve the persisted result from cache")
	}
	sameResult(t, got, want)

	// Fresh constraints on the same log: result-cache miss, but the session
	// warm-opens from the spilled index instead of re-indexing the log.
	res2, _, err := svc2.Do(context.Background(), Request{Index: eventlog.NewIndex(log), Constraints: mustSet(t, "distinct(role) <= 1\n|g| <= 2"), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	st := svc2.Stats()
	if st.Disk.WarmOpens != 1 {
		t.Fatalf("warm opens = %d, want 1", st.Disk.WarmOpens)
	}
	cold := solveLog(t, log, mustSet(t, "distinct(role) <= 1\n|g| <= 2"), cfg)
	// Compare copies: the async persister may still be reading res2.
	sameResult(t, &JobResult{
		Feasible: res2.Feasible, Grouping: res2.Grouping, GroupClasses: res2.GroupClasses,
		Distance: res2.Distance, Abstracted: res2.Abstracted,
		NumCandidates: res2.NumCandidates, CandidatesTimedOut: res2.CandidatesTimedOut,
		ConstraintChecks: res2.ConstraintChecks, SolverNodes: res2.SolverNodes,
	}, cold)
}

// TestEvictionSpillsIndex pins the two-tier flow within one process: with
// session capacity 1, requesting log B evicts log A's session to disk, and
// a later request on A warm-opens it.
func TestEvictionSpillsIndex(t *testing.T) {
	dir := t.TempDir()
	svc := New(Options{DataDir: dir, SessionCapacity: 1})
	defer svc.Close()
	logA := procgen.RunningExampleTable1()
	logB := procgen.RunningExample(40, 3)
	cfg := core.Config{Mode: core.DFGUnbounded}

	do := func(log *eventlog.Log, text string) {
		t.Helper()
		if _, _, err := svc.Do(context.Background(), Request{Index: eventlog.NewIndex(log), Constraints: mustSet(t, text), Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	do(logA, "distinct(role) <= 1")
	do(logB, "distinct(role) <= 1") // evicts A's session; spill is async
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Disk.SpillWrites < 1 {
		if time.Now().After(deadline) {
			t.Fatal("evicted session never spilled")
		}
		time.Sleep(time.Millisecond)
	}
	do(logA, "distinct(role) <= 1\n|g| <= 2") // evicts B, warm-opens A

	st := svc.Stats()
	if st.Disk.WarmOpens != 1 {
		t.Fatalf("warm opens = %d, want 1", st.Disk.WarmOpens)
	}
	if st.Sessions.Misses != 3 || st.Sessions.Evictions != 2 {
		t.Fatalf("session stats = %+v, want 3 misses / 2 evictions", st.Sessions)
	}
}

// TestCorruptIndexFileFallsBack drops garbage where the warm tier expects
// an index: the request must still succeed (rebuilt from the log), the
// failure must be counted, and the bad file removed.
func TestCorruptIndexFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	log := procgen.RunningExampleTable1()
	path := filepath.Join(dir, "index", LogDigest(log)+".gidx")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("GECCOIDX garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Options{DataDir: dir})
	defer svc.Close()
	res, _, err := svc.Do(context.Background(), Request{Index: eventlog.NewIndex(log), Constraints: mustSet(t, "distinct(role) <= 1"), Config: core.Config{Mode: core.DFGUnbounded}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("fallback build must still solve")
	}
	st := svc.Stats().Disk
	if st.WarmOpenErrors != 1 {
		t.Fatalf("warm open errors = %d, want 1", st.WarmOpenErrors)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt index file must be removed")
	}
}

// TestConcurrentOpenWhileEvicting hammers a capacity-1 two-tier cache with
// interleaved digests, so spills, warm opens, and builds race each other.
// Every caller must get a working session; run under -race via `make race`.
func TestConcurrentOpenWhileEvicting(t *testing.T) {
	store, err := openDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	logs := []*eventlog.Log{
		procgen.RunningExampleTable1(),
		procgen.RunningExample(30, 3),
		procgen.LoanLog(30, 5),
	}
	digests := make([]string, len(logs))
	for i, log := range logs {
		digests[i] = LogDigest(log)
	}

	c := newSessionCache(1, store)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(logs)
				sess, err := c.getOrCreate(digests[k], staticLog(logs[k]))
				if err != nil {
					t.Errorf("getOrCreate(%d): %v", k, err)
					return
				}
				if sess.Index().NumTraces() != len(logs[k].Traces) {
					t.Errorf("session %d: %d traces, want %d", k, sess.Index().NumTraces(), len(logs[k].Traces))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.spillAll()
	store.close()
	if st := store.stats(); st.IndexFiles != len(logs) {
		t.Fatalf("index files after spillAll = %d, want %d", st.IndexFiles, len(logs))
	}
}
