// Package graphdb is a small in-memory property-graph database with a
// Cypher-inspired path query language. It is the substrate for the paper's
// graph-querying baseline BL_Q (§VI-A), which stores the DFG in a graph
// database and retrieves candidate groups via path queries with property
// predicates. The supported query fragment is exactly what class-level
// (R_C) constraints need — which is also BL_Q's documented limitation.
//
// Query shape:
//
//	MATCH p = (a:Class)-[:DF*1..5]->(b:Class)
//	WHERE distinct(p.org) <= 1 AND NOT (contains(p, 'rcp') AND contains(p, 'acc'))
//	RETURN p
//
// Semantics: enumerate all simple directed paths whose edge count lies in
// the given range (node count = edges + 1; *0..0 yields single nodes) and
// whose nodes satisfy the WHERE condition; RETURN p yields the paths.
package graphdb

import (
	"fmt"
)

// Node is a labelled vertex with string properties.
type Node struct {
	ID    int
	Label string
	Props map[string]string
}

// Edge is a typed directed edge with an optional weight.
type Edge struct {
	From, To int
	Type     string
	Weight   float64
}

// Graph is the store. Zero value is not ready; use New.
type Graph struct {
	nodes []Node
	out   map[int][]Edge
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{out: make(map[int][]Edge)}
}

// AddNode inserts a node and returns its id.
func (g *Graph) AddNode(label string, props map[string]string) int {
	id := len(g.nodes)
	if props == nil {
		props = map[string]string{}
	}
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Props: props})
	return id
}

// AddEdge inserts a directed edge.
func (g *Graph) AddEdge(from, to int, typ string, weight float64) error {
	if from < 0 || from >= len(g.nodes) || to < 0 || to >= len(g.nodes) {
		return fmt.Errorf("graphdb: edge endpoints (%d,%d) out of range", from, to)
	}
	e := Edge{From: from, To: to, Type: typ, Weight: weight}
	g.out[from] = append(g.out[from], e)
	return nil
}

// Node returns the node with the given id.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// Result is a query result: each path is a node-id sequence.
type Result struct {
	Paths [][]int
}

// Query parses and executes a query.
func (g *Graph) Query(q string) (*Result, error) {
	ast, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	return g.execute(ast)
}

func (g *Graph) execute(q *queryAST) (*Result, error) {
	res := &Result{}
	// Seed DFS from every node matching the source label.
	for _, n := range g.nodes {
		if q.srcLabel != "" && n.Label != q.srcLabel {
			continue
		}
		g.dfs(q, []int{n.ID}, map[int]bool{n.ID: true}, res)
	}
	return res, nil
}

func (g *Graph) dfs(q *queryAST, path []int, onPath map[int]bool, res *Result) {
	edges := len(path) - 1
	if edges >= q.minHops && g.matches(q, path) {
		res.Paths = append(res.Paths, append([]int(nil), path...))
	}
	if edges >= q.maxHops {
		return
	}
	last := path[len(path)-1]
	for _, e := range g.out[last] {
		if q.edgeType != "" && e.Type != q.edgeType {
			continue
		}
		if onPath[e.To] {
			continue // simple paths only
		}
		if q.dstLabel != "" && g.nodes[e.To].Label != q.dstLabel {
			continue
		}
		onPath[e.To] = true
		g.dfs(q, append(path, e.To), onPath, res)
		delete(onPath, e.To)
	}
}

func (g *Graph) matches(q *queryAST, path []int) bool {
	if q.where == nil {
		return true
	}
	return q.where.eval(g, path)
}
