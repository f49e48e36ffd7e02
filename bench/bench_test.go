package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// benchSpec is BENCHMARK.json, the benchmark's description, which lists the
// metrics a run reports.
func benchSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// smoke is a run shrunk to test size: one set-up, a short warm-up and a few
// measured ops, traced so the replay and the spans run too.
func smoke(t *testing.T, warmup int) runConfig {
	return runConfig{
		seed: 1, seconds: 0.05, trace: true, traceDir: t.TempDir(), spec: benchSpec(t), out: io.Discard,
		setups: 1, warmup: warmup, minOps: 4,
	}
}

// The smoke runs also check that every metric the code measures is listed
// in BENCHMARK.json: a run that measures an unlisted one fails.
func TestWorkloadsAtSmokeSizeFailNothing(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			warmup := 4
			if w.name == "repeat-hot" {
				warmup = w.warmup // the warm-up pass over every key is the workload's premise
			}
			rc := smoke(t, warmup)
			res, err := runWorkload(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(rc.spec.PerLayer) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(rc.spec.PerLayer))
			}
		})
	}
}

func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	w, _ := workloadByName("stream-ingest")
	sp := benchSpec(t)
	rc := runConfig{seed: 1, seconds: 0.05, spec: sp, out: io.Discard, setups: 2, warmup: 100, minOps: minOps}
	res, err := runWorkload(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%t failed=%d", res.Correct, res.Failed)
	}
	for _, m := range sp.EndToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
}

func TestReportRefusesMetricsMissingFromTheSpec(t *testing.T) {
	list := []specMetric{{Name: "ops_per_s", Unit: "1/s"}}
	res := result{Metrics: map[string]metricValue{}}
	if err := res.report(list, map[string]float64{"ops_per_s": 1, "unlisted_ms": 2}, false); err == nil {
		t.Error("a measured metric BENCHMARK.json does not list was reported")
	}
	if err := res.report(list, map[string]float64{}, false); err == nil {
		t.Error("a listed end-to-end metric the run did not measure was reported")
	}
	if err := res.report(list, map[string]float64{}, true); err != nil || res.Metrics["ops_per_s"].Value != 0 {
		t.Errorf("a per-layer metric off the workload's path: %v, %+v", err, res.Metrics)
	}
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// inputsDigest hashes the bytes the first ops of a workload send.
func inputsDigest(t *testing.T, w workload, seed int64) [32]byte {
	inst, err := w.start(startOpts{seed: seed, warmup: w.warmup})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	h := sha256.New()
	for seq := 0; seq < 40; seq++ {
		b, err := inst.input(seq)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputsDigest(t, w, 7), inputsDigest(t, w, 7), inputsDigest(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// tamper relays to target and corrupts the numCandidates digit of the
// first response it relays.
func tamper(target string) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(r.Method, target+r.URL.RequestURI(), r.Body)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		const field = `"numCandidates":`
		if i := bytes.Index(body, []byte(field)); i >= 0 && done.CompareAndSwap(false, true) {
			body[i+len(field)] = '0' + (body[i+len(field)]-'0'+1)%10
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	})
}

func TestTamperedResponseCountsAsFailed(t *testing.T) {
	w, _ := workloadByName("upload-cold")
	start := w.start
	w.start = func(o startOpts) (*instance, error) {
		inst, err := start(o)
		if err != nil {
			return nil, err
		}
		proxy := httptest.NewServer(tamper(inst.t.url))
		inst.t.url = proxy.URL
		closeInst := inst.close
		inst.close = func() {
			proxy.Close()
			closeInst()
		}
		return inst, nil
	}
	res, err := runWorkload(w, smoke(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%t failed=%d, want the tampered response counted as the one failure", res.Correct, res.Failed)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{999, 99, false}, {1000, 99, true}, {99, 90, false}, {100, 90, true}, {19, 50, false}, {20, 50, true}} {
		v, err := percentile(sorted(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: value %g, error %v", tc.p, tc.n, v, err)
		}
	}
	if v, _ := percentile(sorted(1000), 99); v != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g", q1, m, q3)
	}
}

func TestSpansNestAndSelfTimesAreNonNegative(t *testing.T) {
	w, _ := workloadByName("repeat-hot")
	rc := smoke(t, w.warmup)
	if _, err := runWorkload(w, rc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(rc.traceDir, w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	spans := file.Spans
	byID := map[int]span{}
	names := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	for _, want := range []string{"http.client", "router.serve", "service.handler", "replay", "service.decode", "xes.write", "service.encode"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
	const slack = 1e-6
	for _, s := range spans {
		if s.EndMs < s.StartMs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartMs < p.StartMs-slack || s.EndMs > p.EndMs+slack {
			t.Errorf("span %d %s [%g,%g] is outside its parent %s [%g,%g]", s.ID, s.Name, s.StartMs, s.EndMs, p.Name, p.StartMs, p.EndMs)
		}
	}
	for i, self := range selfTimes(spans) {
		if self < -slack {
			t.Errorf("span %d %s has self time %g", spans[i].ID, spans[i].Name, self)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartMs: 0, EndMs: 10},
		{ID: 2, Parent: 1, Name: "a", StartMs: 1, EndMs: 4},
		{ID: 3, Parent: 1, Name: "b", StartMs: 3, EndMs: 6}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", StartMs: 2, EndMs: 3},
	}
	got := selfTimes(spans)
	want := []float64{5, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %g, want %g", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCompareVerdictsArePaired(t *testing.T) {
	m := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	scale := func(xs []float64, f func(i int) float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f(i)
		}
		return out
	}
	// The host speeds up by 90% across the pairs, which widens each side's
	// own spread far beyond the bound.
	drifting := make([]float64, 10)
	for i := range drifting {
		drifting[i] = 100 + 10*float64(i)
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name       string
		base, next []float64
		want       string
	}{
		{"identical code on a drifting host", drifting, scale(drifting, func(i int) float64 { return 1 + 0.01*float64(1-2*(i%2)) }), same},
		{"20% slower on a drifting host", drifting, scale(drifting, func(int) float64 { return 0.8 }), worse},
		{"30% faster on a steady host", steady, scale(steady, func(int) float64 { return 1.3 }), better},
		{"30% faster, within the base's own quartiles", drifting, scale(drifting, func(int) float64 { return 1.3 }), unresolved},
		{"pairs disagree", steady, scale(steady, func(i int) float64 { return 0.5 + float64(i%2) }), unresolved},
	} {
		if got := verdict(m, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
