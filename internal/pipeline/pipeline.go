// Package pipeline is the staged process-mining engine that composes
// GECCO's abstraction step (§V) with the surrounding workflow the paper
// evaluates it in (§VI): log filtering, constraint suggestion (§VIII),
// abstraction, Split-Miner-style discovery, and directly-follows
// conformance checking. A pipeline is an ordered list of Stages; each stage
// consumes and produces typed artifacts carried in an immutable State, and
// every stage has a deterministic digest so that a run's stage keys form a
// hash chain: stage i's key commits to the base inputs (log digest and
// user constraints) and to the configuration of every stage up to and
// including i. Hosts (the service layer, the CLI, the experiments harness)
// supply an Env with optional caching and session-reuse hooks; the engine
// itself is deterministic and allocation-conscious but policy-free.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"gecco/internal/conformance"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/discovery"
	"gecco/internal/eventlog"
	"gecco/internal/suggest"
)

// Version is folded into every base key so that engine changes that alter
// stage outputs invalidate cached states instead of replaying them.
const Version = "gecco-pipeline-v1"

// Artifact names a typed value a stage consumes or produces. The engine
// validates before running that every stage's needs are met by the base
// state or an earlier stage's provides.
type Artifact string

const (
	// ArtifactLog is the working event-log index (possibly filtered).
	ArtifactLog Artifact = "log"
	// ArtifactConstraints is a non-empty constraint set.
	ArtifactConstraints Artifact = "constraints"
	// ArtifactAbstraction is a core.Result from the solver; the
	// abstracted log it implies is the state's Abstracted index.
	ArtifactAbstraction Artifact = "abstraction"
	// ArtifactModel is a discovered process model.
	ArtifactModel Artifact = "model"
	// ArtifactConformance is a fitness/precision evaluation.
	ArtifactConformance Artifact = "conformance"
)

// State carries the artifacts flowing between stages. States are treated as
// immutable: a stage copies the struct, sets its outputs, and returns the
// copy, so cached states can be shared between runs without aliasing
// hazards. A State holds data only — never a live session — so caching a
// state pins indexes but no solver memos. A base state may carry its log
// as Load instead of Index; Run resolves it before any stage sees the
// state, so no state a stage receives or the cache stores holds a loader.
type State struct {
	// Index is the working log view all stages operate on.
	Index *eventlog.Index
	// Load, on a base state, supplies the log on demand in place of Index.
	// Run calls it at most once, and only when a stage is about to execute
	// on the base state itself: a run that adopts its first stage from the
	// cache never loads the log.
	Load func() (*eventlog.Index, error)
	// IndexKey identifies Index's content for session keying: the raw
	// log's digest at the pipeline entry, re-derived by every
	// index-transforming stage. Two runs whose filter prefixes agree share
	// the key and so share solver sessions.
	IndexKey string
	// Constraints is the active constraint set (user-supplied or emitted
	// by the suggest stage).
	Constraints *constraints.Set
	// Suggestions are the ranked proposals of the suggest stage (also
	// populated when constraints were user-supplied and the stage was a
	// pass-through, in which case it is nil).
	Suggestions []suggest.Suggestion
	// Abstraction is the solver outcome. Its Abstracted *Log is nil: the
	// abstracted log is carried once, as the Abstracted index.
	Abstraction *core.Result
	// Abstracted is the indexed abstracted log when the solve was
	// feasible; on an infeasible solve it aliases Index (the paper's §V-C
	// contract: infeasibility hands the input log through unchanged).
	Abstracted *eventlog.Index
	// Model is the discovered process model.
	Model *discovery.Model
	// Conformance is the fitness/precision evaluation of Model.
	Conformance *conformance.Result
}

// View returns the index downstream mining stages should operate on: the
// abstracted log when an abstract stage ran, the working index otherwise.
func (s *State) View() *eventlog.Index {
	if s.Abstracted != nil {
		return s.Abstracted
	}
	return s.Index
}

// has reports whether the state carries the artifact.
func (s *State) has(a Artifact) bool {
	switch a {
	case ArtifactLog:
		return s.Index != nil || s.Load != nil
	case ArtifactConstraints:
		return s.Constraints != nil && s.Constraints.Len() > 0
	case ArtifactAbstraction:
		return s.Abstraction != nil
	case ArtifactModel:
		return s.Model != nil
	case ArtifactConformance:
		return s.Conformance != nil
	}
	return false
}

// Stage is one step of a pipeline.
type Stage interface {
	// Name is the stage's stable identifier ("filter", "abstract", ...);
	// it labels cache counters and progress reports.
	Name() string
	// Digest is a deterministic encoding of the stage's result-affecting
	// configuration. It feeds the stage-key chain, so two stages with
	// equal (Name, Digest) given equal upstream keys produce equal states.
	Digest() string
	// Needs lists the artifacts the stage consumes.
	Needs() []Artifact
	// Provides lists the artifacts the stage produces.
	Provides() []Artifact
	// Run executes the stage. It must not mutate in; it returns a new
	// state carrying in's artifacts plus its own outputs.
	Run(ctx context.Context, env *Env, in *State) (*State, error)
}

// StageCache is the per-stage result cache a host may plug into the Env.
// Keys are chain keys: a hit means the exact same base inputs and stage
// prefix ran before, so the cached state can be adopted wholesale. The
// stage name is informational (per-stage hit/miss accounting).
type StageCache interface {
	Get(stage, key string) (*State, bool)
	Put(stage, key string, s *State)
}

// Env supplies host hooks to the engine. The zero value runs every stage
// standalone: fresh sessions, no caching.
type Env struct {
	// Abstract, when non-nil, solves the abstract stage: in's working log
	// (in.Index, identified by in.IndexKey) under in.Constraints and cfg.
	// It returns what core.Session.SolveIndex returns: the result, with no
	// *Log in it, and the abstracted log as an Index. Hosts back it with
	// their result cache and session LRU, keyed as the one-shot solve
	// endpoint keys them, so pipeline and non-pipeline runs of an
	// unfiltered log share entries and warm distance memos. nil solves on
	// a fresh session.
	Abstract func(ctx context.Context, in *State, cfg core.Config) (*core.Result, *eventlog.Index, error)
	// Cache is the per-stage state cache; nil disables stage caching.
	Cache StageCache
}

// StageResult reports one stage of a run.
type StageResult struct {
	Stage string
	// Key is the stage's chain key.
	Key string
	// Cached reports that the stage's state was adopted from the cache
	// instead of executed.
	Cached   bool
	Duration time.Duration
}

// Result is the outcome of a pipeline run.
type Result struct {
	State  *State
	Stages []StageResult
}

// Validate checks that every stage's needs are satisfied by the base state
// or an earlier stage's provides, without running anything. A base state's
// Load counts as its log.
func Validate(stages []Stage, base *State) error {
	if len(stages) == 0 {
		return fmt.Errorf("pipeline: no stages")
	}
	have := map[Artifact]bool{}
	for _, a := range []Artifact{ArtifactLog, ArtifactConstraints, ArtifactAbstraction, ArtifactModel, ArtifactConformance} {
		have[a] = base.has(a)
	}
	for i, st := range stages {
		for _, need := range st.Needs() {
			if !have[need] {
				return fmt.Errorf("pipeline: stage %d (%s) needs %q, which no earlier stage provides (add one, or supply it with the request)", i, st.Name(), need)
			}
		}
		for _, p := range st.Provides() {
			have[p] = true
		}
	}
	return nil
}

// BaseKey derives the key chain's anchor from the raw log digest and the
// canonical rendering of the user-supplied constraints. The engine version
// is folded in so format or semantics changes never resurrect stale states.
func BaseKey(logDigest, canonicalConstraints string) string {
	return DeriveKey(Version, logDigest, canonicalConstraints)
}

// ChainKey extends a chain key by one stage.
func ChainKey(prev string, st Stage) string {
	return DeriveKey(prev, st.Name(), st.Digest())
}

// DeriveKey hashes length-prefixed parts into a hex key, so no two distinct
// part lists share an encoding.
func DeriveKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		writeStr(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeStr(h hash.Hash, s string) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
	h.Write(buf[:])
	h.Write([]byte(s))
}

// Run validates and executes the stages against the base state. baseKey
// anchors the stage-key chain (see BaseKey); env supplies host hooks and
// may be nil. Every stage's key is looked up front to back, and on a stage
// cache hit the cached state is adopted and the stage is not executed —
// because keys chain, a hit guarantees every upstream artifact is
// byte-identical to what a fresh run would produce. A base that carries its
// log as Load is loaded when the first stage misses, inside that stage's
// Duration, and not at all when the first stage hits.
func Run(ctx context.Context, stages []Stage, base *State, baseKey string, env *Env) (*Result, error) {
	if env == nil {
		env = &Env{}
	}
	if base == nil || !base.has(ArtifactLog) {
		return nil, fmt.Errorf("pipeline: base state has no log")
	}
	if err := Validate(stages, base); err != nil {
		return nil, err
	}
	res := &Result{State: base, Stages: make([]StageResult, 0, len(stages))}
	key := baseKey
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		key = ChainKey(key, st)
		if env.Cache != nil {
			if cached, ok := env.Cache.Get(st.Name(), key); ok {
				res.State = cached
				res.Stages = append(res.Stages, StageResult{Stage: st.Name(), Key: key, Cached: true})
				continue
			}
		}
		t0 := time.Now()
		in := res.State
		if in.Load != nil {
			x, err := in.Load()
			if err != nil {
				return nil, fmt.Errorf("pipeline: loading the base log: %w", err)
			}
			loaded := *in
			loaded.Index, loaded.Load = x, nil
			in = &loaded
		}
		next, err := st.Run(ctx, env, in)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %s: %w", st.Name(), err)
		}
		res.State = next
		res.Stages = append(res.Stages, StageResult{Stage: st.Name(), Key: key, Duration: time.Since(t0)})
		if env.Cache != nil {
			env.Cache.Put(st.Name(), key, next)
		}
	}
	return res, nil
}
