package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

var bg = context.Background()

func baseState(t *testing.T) *State {
	t.Helper()
	return &State{
		Index:    eventlog.NewIndex(procgen.RunningExampleTable1()),
		IndexKey: "test-log",
	}
}

// mapCache is a trivial StageCache recording per-stage traffic.
type mapCache struct {
	states map[string]*State
	gets   []string
	puts   []string
}

func newMapCache() *mapCache { return &mapCache{states: map[string]*State{}} }

func (c *mapCache) Get(stage, key string) (*State, bool) {
	c.gets = append(c.gets, stage)
	st, ok := c.states[key]
	return st, ok
}

func (c *mapCache) Put(stage, key string, st *State) {
	c.puts = append(c.puts, stage)
	c.states[key] = st
}

func TestValidate(t *testing.T) {
	base := baseState(t)
	if err := Validate([]Stage{DiscoverStage{}, ConformStage{}}, base); err != nil {
		t.Fatalf("discover→conform should validate: %v", err)
	}
	if err := Validate([]Stage{ConformStage{}}, base); err == nil {
		t.Fatal("conform without a model should not validate")
	}
	if err := Validate([]Stage{AbstractStage{}}, base); err == nil {
		t.Fatal("abstract without constraints should not validate")
	}
	if err := Validate([]Stage{SuggestStage{}, AbstractStage{}}, base); err != nil {
		t.Fatalf("suggest should satisfy abstract's constraint need: %v", err)
	}
	withCons := *base
	withCons.Constraints = constraints.NewSet(constraints.MustParse("|g| <= 3"))
	if err := Validate([]Stage{AbstractStage{}}, &withCons); err != nil {
		t.Fatalf("abstract with base constraints should validate: %v", err)
	}
	if err := Validate(nil, base); err == nil {
		t.Fatal("empty pipeline should not validate")
	}
}

func TestChainKeysCommitToPrefix(t *testing.T) {
	stages := func(details bool) []Stage {
		return []Stage{
			SuggestStage{},
			AbstractStage{},
			DiscoverStage{},
			ConformStage{Details: details},
		}
	}
	keys := func(sts []Stage) []string {
		out := make([]string, len(sts))
		k := BaseKey("digest", "cons")
		for i, st := range sts {
			k = ChainKey(k, st)
			out[i] = k
		}
		return out
	}
	a, b := keys(stages(false)), keys(stages(false))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stage %d key not deterministic", i)
		}
	}
	// A changed tail stage alters only its own key.
	c := keys(stages(true))
	for i := 0; i < 3; i++ {
		if a[i] != c[i] {
			t.Fatalf("upstream key %d changed by a tail-stage edit", i)
		}
	}
	if a[3] == c[3] {
		t.Fatal("conform key ignored its config")
	}
	// A changed base invalidates the whole chain.
	k := BaseKey("other", "cons")
	for i, st := range stages(false) {
		k = ChainKey(k, st)
		if k == a[i] {
			t.Fatalf("stage %d key ignored the base inputs", i)
		}
	}
}

func TestRunDefaultPipeline(t *testing.T) {
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, stages, baseState(t), BaseKey("d", ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("ran %d stages, want 4", len(res.Stages))
	}
	st := res.State
	if st.Constraints == nil || st.Constraints.Len() == 0 {
		t.Fatal("suggest stage adopted no constraints")
	}
	if len(st.Suggestions) == 0 {
		t.Fatal("suggestions not carried in the state")
	}
	if st.Abstraction == nil {
		t.Fatal("no abstraction result")
	}
	if st.Model == nil {
		t.Fatal("no discovered model")
	}
	if st.Conformance == nil {
		t.Fatal("no conformance result")
	}
	if f := st.Conformance.Fitness; f < 0 || f > 1 {
		t.Fatalf("fitness %f out of range", f)
	}
	if p := st.Conformance.Precision; p < 0 || p > 1 {
		t.Fatalf("precision %f out of range", p)
	}
}

func TestSuggestPassThroughWithUserConstraints(t *testing.T) {
	base := baseState(t)
	base.Constraints = constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, stages, base, BaseKey("d", base.Constraints.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.State.Suggestions) != 0 {
		t.Fatal("suggest should be a pass-through when constraints are supplied")
	}
	if res.State.Constraints.Len() != 1 {
		t.Fatal("user constraints replaced")
	}
	if !res.State.Abstraction.Feasible {
		t.Fatal("role homogeneity is feasible on the running example")
	}
}

func TestStageCacheAdoption(t *testing.T) {
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	env := &Env{Cache: cache}
	key := BaseKey("d", "")
	if _, err := Run(bg, stages, baseState(t), key, env); err != nil {
		t.Fatal(err)
	}
	if len(cache.puts) != 4 {
		t.Fatalf("first run stored %d states, want 4", len(cache.puts))
	}
	res, err := Run(bg, stages, baseState(t), key, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if !st.Cached {
			t.Fatalf("stage %s re-executed on an identical re-run", st.Stage)
		}
	}
	// Changing only the tail stage reuses every upstream state.
	tail := []Stage{stages[0], stages[1], stages[2], ConformStage{Details: true}}
	res, err = Run(bg, tail, baseState(t), key, env)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stages[:3] {
		if !st.Cached {
			t.Fatalf("upstream stage %d (%s) re-executed after a tail-only change", i, st.Stage)
		}
	}
	if res.Stages[3].Cached {
		t.Fatal("edited conform stage served from cache")
	}
}

func TestFilterStage(t *testing.T) {
	f := FilterStage{TopVariants: 0.8}
	base := baseState(t)
	out, err := f.Run(bg, &Env{}, base)
	if err != nil {
		t.Fatal(err)
	}
	if out.IndexKey == base.IndexKey {
		t.Fatal("filter did not re-derive the index key")
	}
	if out.Index == base.Index {
		t.Fatal("filter returned the input index")
	}
	// A filter that removes every trace is an error, not an empty log.
	head := FilterStage{Head: 0, ProjectClasses: []string{"no-such-class"}}
	if _, err := head.Run(bg, &Env{}, base); err == nil {
		t.Fatal("all-trace removal should error")
	}
}

func TestSpecParsing(t *testing.T) {
	specs, err := ParseSpecs("")
	if err != nil || len(specs) != 4 {
		t.Fatalf("empty spec should yield the 4 default stages: %v", err)
	}
	specs, err = ParseSpecs(`[{"stage":"filter","topVariants":0.8},{"stage":"discover"}]`)
	if err != nil || len(specs) != 2 {
		t.Fatalf("parse: %v", err)
	}
	if _, err := BuildStages(specs); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecs(`[{"stage":"abstract","nope":1}]`); err == nil {
		t.Fatal("unknown field accepted")
	}
	// One list and nothing after it: a second list, garbage or a stray
	// bracket is an error, not dropped.
	for _, text := range []string{
		`[{"stage":"abstract"}][{"stage":"bogus"}]`,
		`[{"stage":"abstract"}] garbage`,
		`[{"stage":"abstract"}]}`,
	} {
		if _, err := ParseSpecs(text); err == nil || !strings.HasPrefix(err.Error(), "pipeline: parsing stage list:") {
			t.Fatalf("ParseSpecs(%s) = %v, want a stage-list parse error", text, err)
		}
	}
	if specs, err := ParseSpecs("[{\"stage\":\"abstract\"}]\n"); err != nil || len(specs) != 1 {
		t.Fatalf("trailing newline: %d specs, %v", len(specs), err)
	}
	if _, err := BuildStages([]StageSpec{{Stage: "filter"}}); err == nil {
		t.Fatal("no-op filter accepted")
	}
	if _, err := BuildStages([]StageSpec{{Stage: "bogus"}}); err == nil {
		t.Fatal("unknown stage accepted")
	}
	if _, err := BuildStages([]StageSpec{{Stage: "abstract", Mode: "warp"}}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// A negative count is refused, not run as 0 under a key of its own.
	for _, sp := range []StageSpec{
		{Stage: "abstract", BeamWidth: -7},
		{Stage: "abstract", MaxChecks: -1},
		{Stage: "abstract", Workers: -1},
	} {
		if _, err := BuildStages([]StageSpec{sp}); err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Fatalf("BuildStages(%+v) = %v, want a negative-count error", sp, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	stages, _ := BuildStages(nil)
	_, err := Run(ctx, stages, baseState(t), BaseKey("d", ""), nil)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// A base that carries its log as Load counts as having a log, and Run
// loads it at most once, only when a stage is about to execute on it: a
// run whose first stage hits never loads, and no state a stage receives or
// the cache stores holds the loader.
func TestRunLazyBase(t *testing.T) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	loads := 0
	lazy := func() *State {
		return &State{IndexKey: "test-log", Load: func() (*eventlog.Index, error) {
			loads++
			return x, nil
		}}
	}
	if err := Validate([]Stage{DiscoverStage{}}, lazy()); err != nil {
		t.Fatalf("a loader should count as the log: %v", err)
	}
	if _, err := Run(bg, []Stage{DiscoverStage{}}, &State{IndexKey: "test-log"}, BaseKey("d", ""), nil); err == nil {
		t.Fatal("a base with neither Index nor Load ran")
	}
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	env := &Env{Cache: cache}
	key := BaseKey("d", "")
	run := func(name string, sts []Stage, wantLoads int) {
		t.Helper()
		loads = 0
		res, err := Run(bg, sts, lazy(), key, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loads != wantLoads {
			t.Fatalf("%s: loaded the base %d times, want %d", name, loads, wantLoads)
		}
		if res.State.Load != nil || res.State.Index == nil {
			t.Fatalf("%s: the result state holds a loader or no index", name)
		}
		for k, st := range cache.states {
			if st.Load != nil || st.Index == nil {
				t.Fatalf("%s: cached state %s holds a loader or no index", name, k)
			}
		}
	}
	run("cold", stages, 1)
	run("every stage cached", stages, 0)
	run("tail stage misses", []Stage{stages[0], stages[1], stages[2], ConformStage{Details: true}}, 0)
	run("first stage misses", append([]Stage{SuggestStage{Top: 2}}, stages[1:]...), 1)

	failing := &State{IndexKey: "test-log", Load: func() (*eventlog.Index, error) {
		return nil, errors.New("gone")
	}}
	if _, err := Run(bg, stages, failing, key, env); err != nil {
		t.Fatalf("a run whose first stage hits called the loader: %v", err)
	}
	if _, err := Run(bg, []Stage{SuggestStage{Top: 1}}, failing, key, env); err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("a failed load returned %v", err)
	}
}
