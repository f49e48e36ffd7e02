package main

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// env is what a measurement depends on besides the code.
type env struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnv() env {
	return env{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH}
}

// record is the run record -out writes. A -compare record also holds the
// base binary's runs, each paired with the change's run of the same index.
type record struct {
	Env       env                     `json:"env"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Workloads map[string][]runSummary `json:"workloads"`
	Base      map[string][]runSummary `json:"base,omitempty"`
}

// runSummary is one run of one workload.
type runSummary struct {
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newRecord(rc runConfig) *record {
	return &record{Env: currentEnv(), Seconds: rc.seconds, Trace: rc.trace, Workloads: map[string][]runSummary{}}
}

func summarise(seed int64, res result) runSummary {
	s := runSummary{Seed: seed, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, m := range res.Metrics {
		s.Metrics[name] = m.Value
	}
	return s
}

func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing run record: %w", err)
	}
	return nil
}

// values returns metric name's value in each run.
func values(runs []runSummary, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name]
	}
	return xs
}

func errorRate(runs []runSummary) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// spec is the part of BENCHMARK.json the tool reads: the metrics, each with
// its unit, direction and, for the end-to-end ones, bound. It is the only
// list of the metrics; the tool reports each one it lists.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark description: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metrics a run reports: the per-layer ones when
// traced, the end-to-end ones otherwise.
func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// runMany runs each workload repeat times, each run in a process of its own
// as BENCHMARK.json's command runs it, then prints every metric's median and
// spread across the runs and flags spreads wider than the metric's bound.
func runMany(selected []workload, repeat int, rc runConfig, out string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	rec := newRecord(rc)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		for i := 0; i < repeat; i++ {
			seed := rc.seed + int64(i)
			res, err := runChild(self, w.name, seed, rc)
			if err != nil {
				return total, err
			}
			rec.Workloads[w.name] = append(rec.Workloads[w.name], summarise(seed, res))
			total.add(res)
		}
	}
	fmt.Fprintf(rc.out, "\n%-14s %-26s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, w := range selected {
		runs := rec.Workloads[w.name]
		for _, m := range rc.spec.metrics(rc.trace) {
			xs := values(runs, m.Name)
			q1, med, q3 := quartiles(xs)
			s := spread(xs)
			flag := ""
			if m.Bound > 0 && s > m.Bound {
				flag = fmt.Sprintf("  spread exceeds the bound %.2f", m.Bound)
			}
			fmt.Fprintf(rc.out, "%-14s %-26s %12.4f %12.4f %12.4f %7.1f%%%s\n", w.name, m.Name, med, q1, q3, 100*s, flag)
			total.Metrics[w.name+"/"+m.Name] = metricValue{med, m.Unit}
		}
		fmt.Fprintf(rc.out, "%-14s %-26s %12g\n", w.name, "error_rate", errorRate(runs))
	}
	if out != "" {
		if err := rec.write(out); err != nil {
			return total, err
		}
	}
	return total, nil
}

// compareWith measures the base binary (the benchmark built from the parent
// commit) against this one in pairs: each pair runs both on the same seed,
// back to back, and alternates which goes first. The host's speed drifts by
// tens of percent over minutes; pairing puts that drift on both sides
// instead of on whichever side ran later. It prints one verdict row per
// workload and reports whether any metric got worse.
func compareWith(base string, selected []workload, pairs int, rc runConfig, out string) (result, bool, error) {
	info, err := buildinfo.ReadFile(base)
	if err != nil {
		return result{}, false, fmt.Errorf("reading the base binary: %w", err)
	}
	if info.GoVersion != runtime.Version() {
		return result{}, false, fmt.Errorf("refusing to compare binaries built by different toolchains: %s (base) vs %s", info.GoVersion, runtime.Version())
	}
	self, err := os.Executable()
	if err != nil {
		return result{}, false, err
	}
	rec := newRecord(rc)
	rec.Base = map[string][]runSummary{}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		for i := 0; i < pairs; i++ {
			seed := rc.seed + int64(i)
			sides := []struct {
				bin  string
				runs map[string][]runSummary
			}{{base, rec.Base}, {self, rec.Workloads}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				res, err := runChild(s.bin, w.name, seed, rc)
				if err != nil {
					return total, false, err
				}
				s.runs[w.name] = append(s.runs[w.name], summarise(seed, res))
				total.add(res)
			}
		}
	}
	fmt.Fprintln(rc.out)
	anyWorse := false
	for _, w := range selected {
		overall, row := compareWorkload(rc.spec.EndToEnd, rec.Base[w.name], rec.Workloads[w.name])
		anyWorse = anyWorse || overall == worse
		fmt.Fprintf(rc.out, "%-14s %-10s %s\n", w.name, overall, row)
	}
	if out != "" {
		if err := rec.write(out); err != nil {
			return total, anyWorse, err
		}
	}
	return total, anyWorse, nil
}

// compareWorkload returns one workload's overall verdict, the worst of its
// metrics', and a row giving each metric's verdict and median change.
func compareWorkload(metrics []specMetric, base, next []runSummary) (string, string) {
	overall := same
	var parts []string
	note := func(v string) {
		if rank(v) < rank(overall) {
			overall = v
		}
	}
	for _, m := range metrics {
		bv, nv := values(base, m.Name), values(next, m.Name)
		v := verdict(m, bv, nv)
		note(v)
		parts = append(parts, fmt.Sprintf("%s %s (%+.1f%%)", m.Name, v, 100*change(bv, nv)))
	}
	if er := errorRate(next); er > errorRate(base) {
		note(worse)
		parts = append(parts, fmt.Sprintf("error_rate worse (%g)", er))
	}
	return overall, strings.Join(parts, ", ")
}

// runChild runs one workload in a child process of bin and returns its
// result, passing the child's report through.
func runChild(bin, name string, seed int64, rc runConfig) (result, error) {
	trace := "0"
	if rc.trace {
		trace = "1"
	}
	cmd := exec.Command(bin, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", trace, "-trace-dir", rc.traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		io.Copy(rc.out, &stdout)
		return result{}, fmt.Errorf("%s (seed %d): %w", name, seed, err)
	}
	report, last := cutLastLine(stdout.String())
	fmt.Fprint(rc.out, report)
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s (seed %d): reading its result: %w", name, seed, err)
	}
	return res, nil
}

// cutLastLine splits output into everything before its last line and that
// line.
func cutLastLine(output string) (before, last string) {
	output = strings.TrimRight(output, "\n")
	i := strings.LastIndexByte(output, '\n')
	return output[:i+1], output[i+1:]
}

// Verdicts of -compare, worst first.
const (
	worse      = "worse"
	unresolved = "unresolved"
	better     = "better"
	same       = "same"
)

// change is the relative change of the median from base to next.
func change(base, next []float64) float64 {
	mb := median(base)
	if mb == 0 {
		return 0
	}
	return (median(next) - mb) / math.Abs(mb)
}

// minPairs is the fewest pairs -compare accepts: the gain rule below needs
// nine wins in ten.
const minPairs = 10

// verdict judges one metric over paired runs, where base[i] and next[i] ran
// back to back on the same seed.
//
//   - better: next wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than the distance between
//     base's quartiles;
//   - unresolved: otherwise, when the pairs' ratios next/base spread wider
//     than the bound, or next's median is better than base's by more than
//     the bound (a gain the rule above does not confirm);
//   - worse: otherwise, when next's median is worse than base's by more than
//     the bound;
//   - same: otherwise.
func verdict(m specMetric, base, next []float64) string {
	wins := 0
	ratios := make([]float64, len(base))
	for i := range base {
		if improves(m, next[i], base[i]) {
			wins++
		}
		if base[i] != 0 {
			ratios[i] = next[i] / base[i]
		}
	}
	q1, mb, q3 := quartiles(base)
	if 10*wins >= 9*len(base) && math.Abs(median(next)-mb) > q3-q1 {
		return better
	}
	if spread(ratios) > m.Bound {
		return unresolved
	}
	worsening := change(base, next)
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return worse
	case worsening < -m.Bound:
		return unresolved
	}
	return same
}

// improves reports whether x is strictly better than y by m's direction.
func improves(m specMetric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// rank orders verdicts worst first.
func rank(v string) int {
	return slices.Index([]string{worse, unresolved, better, same}, v)
}
