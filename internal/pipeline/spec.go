// StageSpec is the wire form of a pipeline: a JSON stage list shared by the
// HTTP endpoint (POST /pipeline), the CLI (gecco -pipeline) and saved specs.
package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"

	"gecco/internal/abstraction"
	"gecco/internal/candidates"
	"gecco/internal/core"
	"gecco/internal/instances"
)

// StageSpec declares one stage. Stage selects the kind; the remaining
// fields apply to the kinds noted and are ignored elsewhere.
type StageSpec struct {
	Stage string `json:"stage"`

	// filter
	TopVariants     float64  `json:"topVariants,omitempty"`
	MinVariantCount int      `json:"minVariantCount,omitempty"`
	ProjectClasses  []string `json:"projectClasses,omitempty"`
	DropClasses     []string `json:"dropClasses,omitempty"`
	Sample          float64  `json:"sample,omitempty"`
	SampleSeed      int64    `json:"sampleSeed,omitempty"`
	Head            int      `json:"head,omitempty"`

	// suggest
	Top     int     `json:"top,omitempty"`
	MinPass float64 `json:"minPass,omitempty"`

	// abstract
	Mode            string `json:"mode,omitempty"`
	BeamWidth       int    `json:"beamWidth,omitempty"`
	MaxChecks       int    `json:"maxChecks,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	Strategy        string `json:"strategy,omitempty"`
	Policy          string `json:"policy,omitempty"`
	Solver          string `json:"solver,omitempty"`
	SkipMerge       bool   `json:"skipMerge,omitempty"`
	NamePrefix      string `json:"namePrefix,omitempty"`
	NameByClassAttr string `json:"nameByClassAttr,omitempty"`

	// discover
	EdgeFilter float64 `json:"edgeFilter,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`

	// conform
	Details bool `json:"details,omitempty"`
}

// DefaultSpecs is the stage list used when a request supplies none:
// suggest constraints if needed, abstract, discover, and conform.
func DefaultSpecs() []StageSpec {
	return []StageSpec{
		{Stage: "suggest"},
		{Stage: "abstract"},
		{Stage: "discover"},
		{Stage: "conform"},
	}
}

// ParseSpecs decodes a JSON stage list ([...] of StageSpec); empty input
// yields DefaultSpecs.
func ParseSpecs(text string) ([]StageSpec, error) {
	if strings.TrimSpace(text) == "" {
		return DefaultSpecs(), nil
	}
	var specs []StageSpec
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("pipeline: parsing stage list: %w", err)
	}
	// Decode stops after one value; anything but JSON whitespace after it
	// is an error, not a second list to ignore.
	if rest := strings.Trim(text[dec.InputOffset():], " \t\r\n"); rest != "" {
		return nil, fmt.Errorf("pipeline: parsing stage list: data after the list: %.20q", rest)
	}
	return specs, nil
}

// BuildStages turns specs into runnable stages; an empty list builds the
// default pipeline.
func BuildStages(specs []StageSpec) ([]Stage, error) {
	if len(specs) == 0 {
		specs = DefaultSpecs()
	}
	stages := make([]Stage, 0, len(specs))
	for i, sp := range specs {
		st, err := sp.build()
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
		stages = append(stages, st)
	}
	return stages, nil
}

func (sp StageSpec) build() (Stage, error) {
	switch strings.ToLower(sp.Stage) {
	case "filter":
		if sp.TopVariants == 0 && sp.MinVariantCount == 0 && len(sp.ProjectClasses) == 0 &&
			len(sp.DropClasses) == 0 && sp.Sample == 0 && sp.Head == 0 {
			return nil, fmt.Errorf("filter stage configures no operation")
		}
		return FilterStage{
			TopVariants:     sp.TopVariants,
			MinVariantCount: sp.MinVariantCount,
			ProjectClasses:  sp.ProjectClasses,
			DropClasses:     sp.DropClasses,
			SamplePct:       sp.Sample,
			SampleSeed:      sp.SampleSeed,
			Head:            sp.Head,
		}, nil
	case "suggest":
		return SuggestStage{Top: sp.Top, MinPass: sp.MinPass}, nil
	case "abstract":
		cfg, err := sp.SolverConfig()
		if err != nil {
			return nil, err
		}
		return AbstractStage{Config: cfg}, nil
	case "discover":
		return DiscoverStage{EdgeFilter: sp.EdgeFilter, Epsilon: sp.Epsilon}, nil
	case "conform":
		return ConformStage{Details: sp.Details}, nil
	default:
		return nil, fmt.Errorf("unknown stage %q (want filter, suggest, abstract, discover, or conform)", sp.Stage)
	}
}

// SolverConfig maps the spec's abstract fields onto a solver
// configuration. It is the one parser of the solver's wire spellings
// (mode, strategy, policy, solver): POST /abstract and POST /stream read
// theirs through it too.
func (sp StageSpec) SolverConfig() (core.Config, error) {
	cfg := core.Config{
		BeamWidth:          sp.BeamWidth,
		Workers:            sp.Workers,
		Budget:             candidates.Budget{MaxChecks: sp.MaxChecks},
		SkipExclusiveMerge: sp.SkipMerge,
		NamePrefix:         sp.NamePrefix,
		NameByClassAttr:    sp.NameByClassAttr,
	}
	switch strings.ToLower(sp.Mode) {
	case "", "dfg", "dfg-unbounded":
		cfg.Mode = core.DFGUnbounded
	case "exh", "exhaustive":
		cfg.Mode = core.Exhaustive
	case "dfgk", "beam", "dfg-beam":
		cfg.Mode = core.DFGBeam
	default:
		return core.Config{}, fmt.Errorf("unknown mode %q (want exh, dfg, or dfgk)", sp.Mode)
	}
	switch strings.ToLower(sp.Strategy) {
	case "", "completion":
		cfg.Strategy = abstraction.CompletionOnly
	case "start-complete":
		cfg.Strategy = abstraction.StartComplete
	default:
		return core.Config{}, fmt.Errorf("unknown strategy %q", sp.Strategy)
	}
	switch strings.ToLower(sp.Policy) {
	case "", "split":
		cfg.Policy = instances.SplitOnRepeat
	case "whole":
		cfg.Policy = instances.WholeTrace
	default:
		return core.Config{}, fmt.Errorf("unknown policy %q", sp.Policy)
	}
	switch strings.ToLower(sp.Solver) {
	case "", "bb":
		cfg.Solver = core.SolverBB
	case "mip":
		cfg.Solver = core.SolverMIP
	default:
		return core.Config{}, fmt.Errorf("unknown solver %q (want bb or mip)", sp.Solver)
	}
	return cfg, nil
}
