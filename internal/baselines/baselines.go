// Package baselines implements the three comparison approaches of §VI-A:
//
//   - BL_Q — graph querying: Step 1 is replaced by path queries over the
//     DFG stored in internal/graphdb; limited to class-based constraints.
//   - BL_P — spectral graph partitioning of the DFG into n groups,
//     minimising cut weight (normalised spectral clustering via
//     internal/linalg); only strict grouping constraints are supported.
//   - BL_G — greedy agglomerative merging by lowest overall distance;
//     handles class- and instance-based constraints but no grouping
//     constraints and no global optimisation.
package baselines

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"gecco/internal/abstraction"
	"gecco/internal/bitset"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/dfg"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/graphdb"
	"gecco/internal/instances"
	"gecco/internal/linalg"
)

// BLQ runs the graph-querying baseline: the DFG is loaded into a property
// graph, a Cypher-like query derived from the class-based constraints
// retrieves candidate paths, and GECCO's Steps 2–3 select and apply the
// grouping. Instance-based and grouping constraints beyond bounds are not
// expressible — the baseline's documented limitation. The caller's session
// supplies the frozen index and graph, and the abstracted log comes back as
// an Index beside the Result, as from core.Session.SolveIndex, so no
// *eventlog.Log is materialised.
func BLQ(ctx context.Context, sess *core.Session, set *constraints.Set, cfg core.Config) (*core.Result, *eventlog.Index, error) {
	cfg.CustomCandidates = func(x *eventlog.Index, graph *dfg.Graph) ([]bitset.Set, error) {
		return queryCandidates(x, graph, set)
	}
	return sess.SolveIndex(ctx, set, cfg)
}

// queryCandidates builds and runs the graph query for the constraint set.
func queryCandidates(x *eventlog.Index, graph *dfg.Graph, set *constraints.Set) ([]bitset.Set, error) {
	db := graphdb.New()
	// One node per class, carrying its name and single-valued class
	// attributes as properties.
	attrs := classAttrsOf(set)
	attrVals := make(map[string][]map[string]struct{}, len(attrs))
	for _, a := range attrs {
		attrVals[a] = x.ClassAttrValues(a)
	}
	for c := 0; c < x.NumClasses(); c++ {
		props := map[string]string{"name": x.Classes[c]}
		for _, a := range attrs {
			if len(attrVals[a][c]) == 1 {
				for v := range attrVals[a][c] {
					props[a] = v
				}
			}
		}
		db.AddNode("Class", props)
	}
	for a := 0; a < graph.N; a++ {
		for _, b := range graph.Out(a) {
			if err := db.AddEdge(a, b, "DF", float64(graph.Freq[a][b])); err != nil {
				return nil, err
			}
		}
	}
	q, err := buildQuery(set)
	if err != nil {
		return nil, err
	}
	res, err := db.Query(q)
	if err != nil {
		return nil, err
	}
	// Paths to groups, deduplicated; singletons come from the *0.. range.
	seen := make(map[string]struct{})
	var groups []bitset.Set
	for _, p := range res.Paths {
		g := bitset.FromSlice(x.NumClasses(), p)
		k := g.Key()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		if x.Occurs(g) {
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// classAttrsOf lists the class-level attributes referenced by the set.
func classAttrsOf(set *constraints.Set) []string {
	var out []string
	for _, c := range set.Class {
		if cad, ok := c.(constraints.ClassAttrDistinct); ok {
			out = append(out, cad.Attr)
		}
	}
	return out
}

// buildQuery translates class-based constraints into the query language.
// Unsupported constraint categories are ignored (BL_Q cannot express them).
func buildQuery(set *constraints.Set) (string, error) {
	maxSize := 8 // default path bound keeps enumeration tractable
	var conds []string
	for _, c := range set.Class {
		switch cc := c.(type) {
		case constraints.GroupSize:
			switch cc.Op {
			case constraints.LE:
				maxSize = cc.N
			case constraints.LT:
				maxSize = cc.N - 1
			case constraints.GE, constraints.GT:
				n := cc.N
				if cc.Op == constraints.GT {
					n++
				}
				conds = append(conds, fmt.Sprintf("length(p) >= %d", n))
			}
		case constraints.CannotLink:
			conds = append(conds, fmt.Sprintf("NOT (contains(p, '%s') AND contains(p, '%s'))", cc.A, cc.B))
		case constraints.MustLink:
			conds = append(conds, fmt.Sprintf("(contains(p, '%s') AND contains(p, '%s')) OR (NOT contains(p, '%s') AND NOT contains(p, '%s'))", cc.A, cc.B, cc.A, cc.B))
		case constraints.ClassAttrDistinct:
			op := cc.Op.String()
			if op == "==" {
				op = "="
			}
			conds = append(conds, fmt.Sprintf("distinct(p.%s) %s %d", cc.Attr, op, cc.N))
		}
	}
	q := fmt.Sprintf("MATCH p = (a:Class)-[:DF*0..%d]->(b:Class)", maxSize-1)
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return q + " RETURN p", nil
}

// BLP runs the spectral-partitioning baseline: the DFG's symmetrised,
// normalised adjacency is clustered into numGroups groups via normalised
// spectral clustering. Only the group count is controllable; all other
// constraint categories are unsupported. The abstracted log comes back as
// an Index beside the Result.
func BLP(ctx context.Context, x *eventlog.Index, numGroups int, policy instances.Policy) (*core.Result, *eventlog.Index, error) {
	if numGroups < 1 {
		return nil, nil, fmt.Errorf("baselines: BLP needs numGroups >= 1")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("baselines: %w", err)
	}
	t0 := time.Now()
	n := x.NumClasses()
	if numGroups > n {
		numGroups = n
	}
	graph := dfg.Build(x)

	// Weighted adjacency: symmetrised directly-follows frequencies,
	// normalised by the maximum.
	w := linalg.NewMatrix(n, n)
	maxF := 1.0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			f := float64(graph.Freq[a][b] + graph.Freq[b][a])
			if f > maxF {
				maxF = f
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			w.Set(a, b, float64(graph.Freq[a][b]+graph.Freq[b][a])/maxF)
		}
	}
	// Normalised Laplacian L = I - D^{-1/2} W D^{-1/2}.
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i] += w.At(i, j)
		}
		if d[i] == 0 {
			d[i] = 1e-12
		}
	}
	lap := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -w.At(i, j) / math.Sqrt(d[i]*d[j])
			if i == j {
				v += 1
			}
			lap.Set(i, j, v)
		}
	}
	eig, err := linalg.EigenSym(lap)
	if err != nil {
		return nil, nil, fmt.Errorf("baselines: BLP eigen: %w", err)
	}
	// Embed into the numGroups smallest eigenvectors, row-normalise, and
	// k-means.
	embed := linalg.NewMatrix(n, numGroups)
	for i := 0; i < n; i++ {
		norm := 0.0
		for j := 0; j < numGroups; j++ {
			v := eig.Vectors.At(i, j)
			embed.Set(i, j, v)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for j := 0; j < numGroups; j++ {
				embed.Set(i, j, embed.At(i, j)/norm)
			}
		}
	}
	assign := linalg.KMeans(embed, numGroups, 1)
	groups := make([]bitset.Set, numGroups)
	for gi := range groups {
		groups[gi] = bitset.New(n)
	}
	for c, gi := range assign {
		groups[gi].Add(c)
	}
	var nonEmpty []bitset.Set
	for _, g := range groups {
		if !g.IsEmpty() {
			nonEmpty = append(nonEmpty, g)
		}
	}
	return finishGrouping(x, nonEmpty, policy, t0)
}

// BLG runs the greedy baseline: all classes start as singletons; in each
// iteration the constraint-respecting merge with the lowest resulting total
// distance is applied; the procedure stops when no merge improves the total
// distance. Grouping constraints cannot be enforced. The abstracted log
// comes back as an Index beside the Result.
func BLG(ctx context.Context, x *eventlog.Index, set *constraints.Set, policy instances.Policy) (*core.Result, *eventlog.Index, error) {
	t0 := time.Now()
	ev := constraints.NewEvaluator(x, set, policy)
	dc := distance.NewCalc(x, policy)
	n := x.NumClasses()

	groups := make([]bitset.Set, n)
	feasible := true
	for c := 0; c < n; c++ {
		g := bitset.New(n)
		g.Add(c)
		groups[c] = g
		if !ev.Holds(g) {
			feasible = false
		}
	}
	if !feasible {
		// Some singleton already violates R: greedy has no repair step, so
		// the problem is unsolvable for BL_G (mirroring its lower solve
		// rate in Table VII). The infeasibility contract hands back the
		// input log unchanged (§V-C): its own index.
		return &core.Result{Diagnostics: ev.Diagnose()}, x, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("baselines: %w", err)
		}
		bestI, bestJ := -1, -1
		bestDelta := -1e-12 // require strict improvement
		var bestMerge bitset.Set
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				merged := groups[i].Union(groups[j])
				if !x.Occurs(merged) {
					continue
				}
				delta := dc.Group(merged) - dc.Group(groups[i]) - dc.Group(groups[j])
				if delta < bestDelta && ev.Holds(merged) {
					bestDelta = delta
					bestI, bestJ = i, j
					bestMerge = merged
				}
			}
		}
		if bestI < 0 {
			break
		}
		groups[bestI] = bestMerge
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
	}
	return finishGrouping(x, groups, policy, t0)
}

// finishGrouping packages a grouping into a core.Result and the abstracted
// log's Index.
func finishGrouping(x *eventlog.Index, groups []bitset.Set, policy instances.Policy, t0 time.Time) (*core.Result, *eventlog.Index, error) {
	dc := distance.NewCalc(x, policy)
	names := abstraction.AutoNames(x, groups, "Activity ")
	grouping := abstraction.Grouping{Groups: groups, Names: names}
	abstracted, err := abstraction.Apply(x, grouping, abstraction.CompletionOnly, policy)
	if err != nil {
		return nil, nil, err
	}
	res := &core.Result{
		Feasible: true,
		Grouping: grouping,
		Distance: dc.Grouping(groups),
	}
	res.GroupClasses = make([][]string, len(groups))
	for i, g := range groups {
		res.GroupClasses[i] = x.GroupNames(g)
	}
	res.Timings.Candidates = time.Since(t0)
	return res, abstracted, nil
}
