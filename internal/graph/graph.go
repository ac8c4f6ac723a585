// Package graph implements the embedded graph and hierarchy engine of
// §II-E: graph views defined over relational columns, traversal operators
// (shortest path, distance, neighborhood, components), and a hierarchy
// engine with nested-interval labeling that answers subtree predicates in
// O(1) per node — including versioned, time-dependent hierarchies
// (DeltaNI-inspired, [5]).
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Graph is a directed, optionally weighted multigraph over string node
// IDs. Build once from an edge list (typically a relational scan); reads
// are concurrency-safe after Freeze.
type Graph struct {
	nodes map[string]int
	names []string
	adj   [][]edge
	radj  [][]edge
	edges int
}

type edge struct {
	to int
	w  float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: map[string]int{}}
}

// AddEdge inserts a directed edge with weight w (use 1 for unweighted).
func (g *Graph) AddEdge(from, to string, w float64) {
	f, t := g.intern(from), g.intern(to)
	g.adj[f] = append(g.adj[f], edge{to: t, w: w})
	g.radj[t] = append(g.radj[t], edge{to: f, w: w})
	g.edges++
}

// AddUndirected inserts edges in both directions.
func (g *Graph) AddUndirected(a, b string, w float64) {
	g.AddEdge(a, b, w)
	g.AddEdge(b, a, w)
}

func (g *Graph) intern(name string) int {
	if id, ok := g.nodes[name]; ok {
		return id
	}
	id := len(g.names)
	g.nodes[name] = id
	g.names = append(g.names, name)
	g.adj = append(g.adj, nil)
	g.radj = append(g.radj, nil)
	return id
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Has reports whether the node exists.
func (g *Graph) Has(name string) bool {
	_, ok := g.nodes[name]
	return ok
}

// Neighbors returns the out-neighbors of a node, sorted.
func (g *Graph) Neighbors(name string) []string {
	id, ok := g.nodes[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.adj[id]))
	for _, e := range g.adj[id] {
		out = append(out, g.names[e.to])
	}
	sort.Strings(out)
	return out
}

// Distance returns the minimum hop count between two nodes (BFS), or -1
// when unreachable.
func (g *Graph) Distance(from, to string) int {
	path := g.bfsPath(from, to)
	if path == nil {
		return -1
	}
	return len(path) - 1
}

// ShortestPath returns the minimum-weight path and its total cost
// (Dijkstra). ok is false when unreachable.
func (g *Graph) ShortestPath(from, to string) (path []string, cost float64, ok bool) {
	s, sok := g.nodes[from]
	t, tok := g.nodes[to]
	if !sok || !tok {
		return nil, 0, false
	}
	const inf = math.MaxFloat64
	dist := make([]float64, len(g.names))
	prev := make([]int, len(g.names))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[s] = 0
	pq := &nodeHeap{{node: s, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.dist > dist[cur.node] {
			continue
		}
		if cur.node == t {
			break
		}
		for _, e := range g.adj[cur.node] {
			if nd := cur.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = cur.node
				heap.Push(pq, nodeDist{node: e.to, dist: nd})
			}
		}
	}
	if dist[t] == inf {
		return nil, 0, false
	}
	for at := t; at != -1; at = prev[at] {
		path = append([]string{g.names[at]}, path...)
	}
	return path, dist[t], true
}

// bfsPath returns the hop-minimal path or nil.
func (g *Graph) bfsPath(from, to string) []string {
	s, sok := g.nodes[from]
	t, tok := g.nodes[to]
	if !sok || !tok {
		return nil
	}
	prev := make([]int, len(g.names))
	for i := range prev {
		prev[i] = -2
	}
	prev[s] = -1
	queue := []int{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == t {
			var path []string
			for at := t; at != -1; at = prev[at] {
				path = append([]string{g.names[at]}, path...)
			}
			return path
		}
		for _, e := range g.adj[cur] {
			if prev[e.to] == -2 {
				prev[e.to] = cur
				queue = append(queue, e.to)
			}
		}
	}
	return nil
}

// Reachable returns all nodes reachable from start within maxHops
// (maxHops < 0 means unlimited), excluding start, sorted.
func (g *Graph) Reachable(start string, maxHops int) []string {
	s, ok := g.nodes[start]
	if !ok {
		return nil
	}
	seen := map[int]bool{s: true}
	frontier := []int{s}
	hops := 0
	var out []string
	for len(frontier) > 0 && (maxHops < 0 || hops < maxHops) {
		hops++
		var next []int
		for _, cur := range frontier {
			for _, e := range g.adj[cur] {
				if !seen[e.to] {
					seen[e.to] = true
					out = append(out, g.names[e.to])
					next = append(next, e.to)
				}
			}
		}
		frontier = next
	}
	sort.Strings(out)
	return out
}

// ConnectedComponents returns a component label per node (undirected
// interpretation), as name -> component id.
func (g *Graph) ConnectedComponents() map[string]int {
	comp := make([]int, len(g.names))
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := range g.names {
		if comp[i] >= 0 {
			continue
		}
		stack := []int{i}
		comp[i] = next
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, lists := range [][]edge{g.adj[cur], g.radj[cur]} {
				for _, e := range lists {
					if comp[e.to] < 0 {
						comp[e.to] = next
						stack = append(stack, e.to)
					}
				}
			}
		}
		next++
	}
	out := make(map[string]int, len(g.names))
	for i, n := range g.names {
		out[n] = comp[i]
	}
	return out
}

// Degree returns out- and in-degree of a node.
func (g *Graph) Degree(name string) (out, in int) {
	id, ok := g.nodes[name]
	if !ok {
		return 0, 0
	}
	return len(g.adj[id]), len(g.radj[id])
}

type nodeDist struct {
	node int
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Validate reports structural problems (self-loops are allowed; negative
// weights break Dijkstra and are rejected).
func (g *Graph) Validate() error {
	for i, es := range g.adj {
		for _, e := range es {
			if e.w < 0 {
				return fmt.Errorf("graph: negative edge weight %f at %s", e.w, g.names[i])
			}
		}
	}
	return nil
}
