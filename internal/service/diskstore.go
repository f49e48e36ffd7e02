// The warm tier: a diskStore persists columnar indexes and cacheable
// results under the service's data directory, so session-cache evictions
// and process restarts cost an OpenIndex (pure IO) instead of a re-parse
// and re-build. Layout under the data dir:
//
//	index/<log-digest>.gidx    one eventlog index file per log (WriteIndex)
//	results/<request-key>.json one envelope per cacheable feasible result
//
// Both digests are hex SHA-256, so names are filename-safe and collision-
// free. All writes are atomic (temp file + rename), which is what makes
// concurrent open-while-evicting safe: a reader sees the old complete file
// or the new one, never a torn write. Corrupt or truncated files are
// detected by the index format's checksums (or the JSON decoder), counted,
// deleted, and rebuilt from the source log on the next request — the warm
// tier is a cache, never the source of truth.

package service

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/xes"
)

// DiskStats reports the warm tier's state and traffic for /stats.
type DiskStats struct {
	Dir         string `json:"dir"`
	IndexFiles  int    `json:"indexFiles"`
	IndexBytes  int64  `json:"indexBytes"`
	ResultFiles int    `json:"resultFiles"`
	// SpillWrites counts index files written on eviction/retirement/shutdown;
	// WarmOpens counts sessions rebuilt from disk instead of re-parsed.
	SpillWrites    int64 `json:"spillWrites"`
	SpillErrors    int64 `json:"spillErrors"`
	WarmOpens      int64 `json:"warmOpens"`
	WarmOpenErrors int64 `json:"warmOpenErrors"`
	ResultsSaved   int64 `json:"resultsSaved"`
	ResultsLoaded  int64 `json:"resultsLoaded"`
}

// diskStore is the on-disk warm tier under the in-RAM session and result
// caches. All methods are safe for concurrent use; writers never block
// readers (atomic rename), and async spills are tracked so close can wait
// for them.
type diskStore struct {
	dir string

	spillWrites    atomic.Int64
	spillErrors    atomic.Int64
	warmOpens      atomic.Int64
	warmOpenErrors atomic.Int64
	resultsSaved   atomic.Int64
	resultsLoaded  atomic.Int64

	writes sync.WaitGroup
}

func openDiskStore(dir string) (*diskStore, error) {
	for _, sub := range []string{"index", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &diskStore{dir: dir}, nil
}

// close waits for in-flight async writes. The store holds no descriptors
// between operations, so there is nothing else to release.
func (d *diskStore) close() { d.writes.Wait() }

func (d *diskStore) indexPath(digest string) string {
	return filepath.Join(d.dir, "index", digest+".gidx")
}

func (d *diskStore) resultPath(key string) string {
	return filepath.Join(d.dir, "results", key+".json")
}

// spillIndex writes the index to the warm tier unless a file for the digest
// already exists (an index is a pure function of its log, so rewriting is
// wasted IO — and sessions warm-opened from this very file always hit this
// path).
func (d *diskStore) spillIndex(digest string, x *eventlog.Index) {
	path := d.indexPath(digest)
	if _, err := os.Stat(path); err == nil {
		return
	}
	if err := atomicWriteFile(path, func(w io.Writer) error { return eventlog.WriteIndex(w, x) }); err != nil {
		d.spillErrors.Add(1)
		return
	}
	d.spillWrites.Add(1)
}

// spillIndexAsync runs spillIndex off the caller's goroutine (eviction
// happens under the session cache mutex on the request path); close waits
// for it.
func (d *diskStore) spillIndexAsync(digest string, x *eventlog.Index) {
	d.writes.Add(1)
	go func() {
		defer d.writes.Done()
		d.spillIndex(digest, x)
	}()
}

// openIndex opens the digest's spilled index, if one exists and decodes
// cleanly. A corrupt file is counted, removed, and reported as a miss, so
// the caller falls back to rebuilding from the log (which re-spills later).
func (d *diskStore) openIndex(digest string) (*eventlog.Index, bool) {
	path := d.indexPath(digest)
	x, err := eventlog.OpenIndex(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			d.warmOpenErrors.Add(1)
			os.Remove(path)
		}
		return nil, false
	}
	d.warmOpens.Add(1)
	return x, true
}

// storedResult is the persisted form of a feasible cacheable result. The
// abstracted log rides along as canonical XES (the repo's pinned round-trip
// format); Grouping.Groups bitsets are deliberately not persisted — they
// index the source log's class universe, which a restarted process has not
// rebuilt, and nothing downstream of the cache reads them. Infeasible
// results are never persisted: their contract returns the original log and
// live *constraints.Violations diagnostics, neither of which belongs in a
// cache file.
type storedResult struct {
	Version            int        `json:"version"`
	Names              []string   `json:"names,omitempty"`
	GroupClasses       [][]string `json:"groupClasses,omitempty"`
	Distance           float64    `json:"distance"`
	AbstractedXES      string     `json:"abstractedXes,omitempty"`
	NumCandidates      int        `json:"numCandidates"`
	CandidatesTimedOut bool       `json:"candidatesTimedOut,omitempty"`
	ConstraintChecks   int        `json:"constraintChecks"`
	SolverNodes        int        `json:"solverNodes"`
	TimingsNs          [3]int64   `json:"timingsNs"`
}

const storedResultVersion = 1

// persistable reports whether a result can round-trip through the disk
// tier.
func persistable(res *JobResult) bool { return res != nil && res.Feasible }

// saveResult persists a feasible result envelope atomically.
func (d *diskStore) saveResult(key string, res *JobResult) {
	if !persistable(res) {
		return
	}
	env := storedResult{
		Version:            storedResultVersion,
		Names:              res.Grouping.Names,
		GroupClasses:       res.GroupClasses,
		Distance:           res.Distance,
		NumCandidates:      res.NumCandidates,
		CandidatesTimedOut: res.CandidatesTimedOut,
		ConstraintChecks:   res.ConstraintChecks,
		SolverNodes:        res.SolverNodes,
		TimingsNs: [3]int64{
			int64(res.Timings.Candidates),
			int64(res.Timings.Solve),
			int64(res.Timings.Abstract),
		},
	}
	if res.Abstracted != nil {
		var b strings.Builder
		if err := xes.WriteIndex(&b, res.Abstracted); err != nil {
			d.spillErrors.Add(1)
			return
		}
		env.AbstractedXES = b.String()
	}
	data, err := json.Marshal(env)
	if err != nil {
		d.spillErrors.Add(1)
		return
	}
	if err := atomicWriteFile(d.resultPath(key), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		d.spillErrors.Add(1)
		return
	}
	d.resultsSaved.Add(1)
}

// saveResultAsync persists off the job-finishing path; close waits for it.
func (d *diskStore) saveResultAsync(key string, res *JobResult) {
	if !persistable(res) {
		return
	}
	d.writes.Add(1)
	go func() {
		defer d.writes.Done()
		d.saveResult(key, res)
	}()
}

// loadResult decodes one persisted result envelope.
func loadResult(data []byte) (*JobResult, error) {
	var env storedResult
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Version != storedResultVersion {
		return nil, errors.New("service: unknown stored-result version")
	}
	res := &JobResult{
		Feasible:           true,
		GroupClasses:       env.GroupClasses,
		Distance:           env.Distance,
		NumCandidates:      env.NumCandidates,
		CandidatesTimedOut: env.CandidatesTimedOut,
		ConstraintChecks:   env.ConstraintChecks,
		SolverNodes:        env.SolverNodes,
		Timings: core.Timings{
			Candidates: time.Duration(env.TimingsNs[0]),
			Solve:      time.Duration(env.TimingsNs[1]),
			Abstract:   time.Duration(env.TimingsNs[2]),
		},
	}
	res.Grouping.Names = env.Names
	if env.AbstractedXES != "" {
		x, err := xes.ReadIndexBytes([]byte(env.AbstractedXES))
		if err != nil {
			return nil, err
		}
		res.Abstracted = x
	}
	return res, nil
}

// loadResults scans the results directory into the cache at startup. Files
// that fail to decode are removed (the tier is a cache; a bad file costs a
// recompute, not an error). File order is sorted so which entries survive a
// smaller-than-disk cache capacity is deterministic.
func (d *diskStore) loadResults(cache *resultCache) {
	entries, err := os.ReadDir(filepath.Join(d.dir, "results"))
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(d.dir, "results", name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		res, err := loadResult(data)
		if err != nil {
			os.Remove(path)
			continue
		}
		cache.put(strings.TrimSuffix(name, ".json"), res)
		d.resultsLoaded.Add(1)
	}
}

// stats walks the tier for /stats. File counts and sizes are read fresh on
// every call — /stats is polled, not hot.
func (d *diskStore) stats() *DiskStats {
	st := &DiskStats{
		Dir:            d.dir,
		SpillWrites:    d.spillWrites.Load(),
		SpillErrors:    d.spillErrors.Load(),
		WarmOpens:      d.warmOpens.Load(),
		WarmOpenErrors: d.warmOpenErrors.Load(),
		ResultsSaved:   d.resultsSaved.Load(),
		ResultsLoaded:  d.resultsLoaded.Load(),
	}
	if entries, err := os.ReadDir(filepath.Join(d.dir, "index")); err == nil {
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".gidx") {
				continue
			}
			st.IndexFiles++
			if fi, err := e.Info(); err == nil {
				st.IndexBytes += fi.Size()
			}
		}
	}
	if entries, err := os.ReadDir(filepath.Join(d.dir, "results")); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				st.ResultFiles++
			}
		}
	}
	return st
}

// atomicWriteFile writes path with write: the bytes land in a temp file in
// the same directory, are fsynced, and are renamed into place only if every
// step succeeded, so a reader sees the old complete file or the new one,
// never a torn write. On failure the temp file is removed.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
