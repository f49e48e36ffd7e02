package main

import (
	"cmp"
	"context"
	"slices"
	"strconv"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
)

// replay times calls into each layer's public functions, from the
// benchmark's own code, on a sample of a workload's inputs. Every call is a
// span; its duration is also kept as a sample of the layer's metric, and
// count metrics are kept beside them.
type replay struct {
	rec     *recorder
	samples map[string][]float64 // per-layer metric -> one sample per replayed op
}

func newReplay(rec *recorder) *replay {
	return &replay{rec: rec, samples: map[string][]float64{}}
}

func (r *replay) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// layerMetric maps a replay span name to the per-layer metric its duration
// feeds.
var layerMetric = map[string]string{
	"service.decode":       "service.decode_ms",
	"service.encode":       "service.encode_ms",
	"xes.read":             "xes.read_ms",
	"service.log_digest":   "service.log_digest_ms",
	"eventlog.index_build": "eventlog.index_build_ms",
	"core.session_build":   "core.session_build_ms",
	"core.solve":           "core.solve_ms",
	"candidates":           "candidates.ms",
	"cover":                "cover.ms",
	"abstraction":          "abstraction.ms",
	"xes.write":            "xes.write_ms",
	"logfilter":            "logfilter.ms",
	"discovery":            "discovery.ms",
	"conformance":          "conformance.ms",
}

// op opens the root span of one replayed op and runs fn under it.
func (r *replay) op(seq int, fn func(root int) error) error {
	_, err := r.rec.timed(span{Name: "replay", Req: "replay-" + strconv.Itoa(seq)}, fn)
	return err
}

// layer times fn as a span of the named layer under parent.
func (r *replay) layer(parent int, name string, fn func(id int) error) error {
	return r.span(parent, name, false, fn)
}

// offPath times a layer the service skipped on this workload: it is
// measured for its own metric but not counted towards the handler time.
func (r *replay) offPath(parent int, name string, fn func(id int) error) error {
	return r.span(parent, name, true, fn)
}

func (r *replay) span(parent int, name string, off bool, fn func(id int) error) error {
	s, err := r.rec.timed(span{Parent: parent, Name: name, OffPath: off}, fn)
	if err == nil {
		r.add(layerMetric[name], s.ms())
	}
	return err
}

// solve replays Session.Solve. The candidate, cover and abstraction steps
// become child spans laid end to end from the result's own Timings, and the
// solve's work counters become count samples.
func (r *replay) solve(parent int, sess *core.Session, set *constraints.Set, cfg core.Config) (*core.Result, error) {
	var res *core.Result
	calc := sess.Calc(cfg.Policy)
	evals := calc.Evals()
	err := r.layer(parent, "core.solve", func(id int) error {
		var err error
		start := r.rec.at(time.Now())
		res, err = sess.Solve(context.Background(), set, cfg)
		if err != nil {
			return err
		}
		for _, step := range []struct {
			name string
			d    time.Duration
		}{{"candidates", res.Timings.Candidates}, {"cover", res.Timings.Solve}, {"abstraction", res.Timings.Abstract}} {
			end := start + float64(step.d)/float64(time.Millisecond)
			r.rec.add(span{Parent: id, Name: step.name, StartMs: start, EndMs: end})
			r.add(layerMetric[step.name], end-start)
			start = end
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.add("candidates.count", float64(res.NumCandidates))
	r.add("cover.nodes", float64(res.SolverNodes))
	r.add("constraints.checks", float64(res.ConstraintChecks))
	if res.ConstraintChecks > 0 {
		r.add("constraints.screened_ratio", float64(res.ScreenedChecks)/float64(res.ConstraintChecks))
	}
	r.add("distance.evals", float64(calc.Evals()-evals))
	r.add("distance.lb_pruned", float64(res.LBPruned))
	r.add("distance.memo_size", float64(sess.MemoSize()))
	return res, nil
}

// selfMedians returns, per replayed layer on the workload's path, the median
// self time of its spans.
func selfMedians(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for i, s := range spans {
		if _, ok := layerMetric[s.Name]; ok && !s.OffPath {
			byName[s.Name] = append(byName[s.Name], self[i])
		}
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
