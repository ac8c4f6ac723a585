package graph

import (
	"fmt"
	"sync"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Views interprets relational columns as graph or hierarchy structures —
// "graph views on top of the relational data" (§II-E) — and exposes
// traversal operators as SQL functions:
//
//	TABLE(GRAPH_SHORTEST_PATH('view', 'a', 'b'))  → (step, node, cost)
//	TABLE(GRAPH_NEIGHBORS('view', 'a'))           → (node)
//	TABLE(GRAPH_REACHABLE('view', 'a', hops))     → (node)
//	GRAPH_DISTANCE('view', 'a', 'b')              → hop count scalar
//	TABLE(HIER_DESCENDANTS('view', 'n'))          → (node, level)
//	HIER_SUBTREE_COUNT('view', 'n')               → scalar
//	HIER_IS_DESCENDANT('view', 'd', 'a')          → scalar boolean
type Views struct {
	mu   sync.Mutex
	eng  *sqlexec.Engine
	defs map[string]*viewDef
}

type viewDef struct {
	graphTable string // edge table
	srcCol     string
	dstCol     string
	weightCol  string // "" for unweighted
	undirected bool

	hierTable string // hierarchy table (node, parent)
	nodeCol   string
	parentCol string

	cachedTS uint64
	graph    *Graph
	hier     *Hierarchy
}

// Attach installs the graph engine into a relational engine.
func Attach(eng *sqlexec.Engine) *Views {
	v := &Views{eng: eng, defs: map[string]*viewDef{}}

	eng.Reg.RegisterScalar("GRAPH_DISTANCE", func(a []value.Value) (value.Value, error) {
		if len(a) != 3 {
			return value.Null, fmt.Errorf("graph: GRAPH_DISTANCE(view, from, to)")
		}
		g, err := v.Graph(a[0].AsString())
		if err != nil {
			return value.Null, err
		}
		d := g.Distance(a[1].AsString(), a[2].AsString())
		if d < 0 {
			return value.Null, nil
		}
		return value.Int(int64(d)), nil
	})
	eng.Reg.RegisterScalar("HIER_SUBTREE_COUNT", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, fmt.Errorf("graph: HIER_SUBTREE_COUNT(view, node)")
		}
		h, err := v.Hierarchy(a[0].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Int(int64(h.SubtreeCount(a[1].AsString()))), nil
	})
	eng.Reg.RegisterScalar("HIER_IS_DESCENDANT", func(a []value.Value) (value.Value, error) {
		if len(a) != 3 {
			return value.Null, fmt.Errorf("graph: HIER_IS_DESCENDANT(view, desc, anc)")
		}
		h, err := v.Hierarchy(a[0].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Bool(h.IsDescendant(a[1].AsString(), a[2].AsString())), nil
	})

	eng.Reg.RegisterTable("GRAPH_SHORTEST_PATH", columnstore.Schema{
		{Name: "step", Kind: value.KindInt},
		{Name: "node", Kind: value.KindString},
		{Name: "cost", Kind: value.KindFloat},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 3 {
			return nil, fmt.Errorf("graph: GRAPH_SHORTEST_PATH(view, from, to)")
		}
		g, err := v.Graph(a[0].AsString())
		if err != nil {
			return nil, err
		}
		path, cost, ok := g.ShortestPath(a[1].AsString(), a[2].AsString())
		if !ok {
			return nil, nil
		}
		out := make([]value.Row, len(path))
		for i, n := range path {
			out[i] = value.Row{value.Int(int64(i)), value.String(n), value.Float(cost)}
		}
		return out, nil
	})
	eng.Reg.RegisterTable("GRAPH_NEIGHBORS", columnstore.Schema{
		{Name: "node", Kind: value.KindString},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 2 {
			return nil, fmt.Errorf("graph: GRAPH_NEIGHBORS(view, node)")
		}
		g, err := v.Graph(a[0].AsString())
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, n := range g.Neighbors(a[1].AsString()) {
			out = append(out, value.Row{value.String(n)})
		}
		return out, nil
	})
	eng.Reg.RegisterTable("GRAPH_REACHABLE", columnstore.Schema{
		{Name: "node", Kind: value.KindString},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 3 {
			return nil, fmt.Errorf("graph: GRAPH_REACHABLE(view, node, hops)")
		}
		g, err := v.Graph(a[0].AsString())
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, n := range g.Reachable(a[1].AsString(), int(a[2].AsInt())) {
			out = append(out, value.Row{value.String(n)})
		}
		return out, nil
	})
	eng.Reg.RegisterTable("HIER_DESCENDANTS", columnstore.Schema{
		{Name: "node", Kind: value.KindString},
		{Name: "level", Kind: value.KindInt},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 2 {
			return nil, fmt.Errorf("graph: HIER_DESCENDANTS(view, node)")
		}
		h, err := v.Hierarchy(a[0].AsString())
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, n := range h.Descendants(a[1].AsString()) {
			out = append(out, value.Row{value.String(n), value.Int(int64(h.Level(n)))})
		}
		return out, nil
	})
	// The graph DSL (§II-E's announced domain-specific language) embeds in
	// SQL as a table function returning up to four generic columns.
	eng.Reg.RegisterTable("GRAPH_QUERY", columnstore.Schema{
		{Name: "c1", Kind: value.KindString},
		{Name: "c2", Kind: value.KindString},
		{Name: "c3", Kind: value.KindString},
		{Name: "c4", Kind: value.KindString},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 2 {
			return nil, fmt.Errorf("graph: GRAPH_QUERY(view, dsl)")
		}
		g, err := v.Graph(a[0].AsString())
		if err != nil {
			return nil, err
		}
		res, err := g.RunDSL(a[1].AsString())
		if err != nil {
			return nil, err
		}
		if len(res.Cols) > 4 {
			return nil, fmt.Errorf("graph: GRAPH_QUERY supports at most 4 return columns")
		}
		out := make([]value.Row, len(res.Rows))
		for i, row := range res.Rows {
			r := make(value.Row, 4)
			for c := 0; c < 4; c++ {
				if c < len(row) {
					r[c] = value.String(row[c])
				}
			}
			out[i] = r
		}
		return out, nil
	})

	eng.Reg.RegisterTable("HIER_ANCESTORS", columnstore.Schema{
		{Name: "node", Kind: value.KindString},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 2 {
			return nil, fmt.Errorf("graph: HIER_ANCESTORS(view, node)")
		}
		h, err := v.Hierarchy(a[0].AsString())
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, n := range h.Ancestors(a[1].AsString()) {
			out = append(out, value.Row{value.String(n)})
		}
		return out, nil
	})
	return v
}

// CreateGraphView declares a graph over an edge table. weightCol may be ""
// for unweighted graphs.
func (v *Views) CreateGraphView(name, table, srcCol, dstCol, weightCol string, undirected bool) error {
	entry, ok := v.eng.Cat.Table(table)
	if !ok {
		return fmt.Errorf("graph: unknown table %q", table)
	}
	for _, c := range []string{srcCol, dstCol} {
		if entry.Schema.ColIndex(c) < 0 {
			return fmt.Errorf("graph: column %q not in %s", c, table)
		}
	}
	if weightCol != "" && entry.Schema.ColIndex(weightCol) < 0 {
		return fmt.Errorf("graph: weight column %q not in %s", weightCol, table)
	}
	v.mu.Lock()
	v.defs[name] = &viewDef{graphTable: table, srcCol: srcCol, dstCol: dstCol, weightCol: weightCol, undirected: undirected}
	v.mu.Unlock()
	return nil
}

// CreateHierarchyView declares a hierarchy over a (node, parent) table.
func (v *Views) CreateHierarchyView(name, table, nodeCol, parentCol string) error {
	entry, ok := v.eng.Cat.Table(table)
	if !ok {
		return fmt.Errorf("graph: unknown table %q", table)
	}
	for _, c := range []string{nodeCol, parentCol} {
		if entry.Schema.ColIndex(c) < 0 {
			return fmt.Errorf("graph: column %q not in %s", c, table)
		}
	}
	v.mu.Lock()
	v.defs[name] = &viewDef{hierTable: table, nodeCol: nodeCol, parentCol: parentCol}
	v.mu.Unlock()
	return nil
}

// Graph materializes (or returns the cached) graph of a view at the
// current snapshot.
func (v *Views) Graph(name string) (*Graph, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.defs[name]
	if !ok || d.graphTable == "" {
		return nil, fmt.Errorf("graph: no graph view %q", name)
	}
	ts := v.eng.Mgr.Now()
	if d.graph != nil && d.cachedTS == ts {
		return d.graph, nil
	}
	cols := d.srcCol + ", " + d.dstCol
	if d.weightCol != "" {
		cols += ", " + d.weightCol
	}
	res, err := v.eng.Query("SELECT " + cols + " FROM " + d.graphTable)
	if err != nil {
		return nil, fmt.Errorf("graph: view %q: %w", name, err)
	}
	g := New()
	for _, row := range res.Rows {
		w := 1.0
		if d.weightCol != "" {
			w = row[2].AsFloat()
		}
		src, dst := row[0].AsString(), row[1].AsString()
		if d.undirected {
			g.AddUndirected(src, dst, w)
		} else {
			g.AddEdge(src, dst, w)
		}
	}
	d.graph, d.cachedTS = g, ts
	return g, nil
}

// Hierarchy materializes (or returns the cached) hierarchy of a view.
func (v *Views) Hierarchy(name string) (*Hierarchy, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, ok := v.defs[name]
	if !ok || d.hierTable == "" {
		return nil, fmt.Errorf("graph: no hierarchy view %q", name)
	}
	ts := v.eng.Mgr.Now()
	if d.hier != nil && d.cachedTS == ts {
		return d.hier, nil
	}
	res, err := v.eng.Query("SELECT " + d.nodeCol + ", " + d.parentCol + " FROM " + d.hierTable)
	if err != nil {
		return nil, fmt.Errorf("graph: view %q: %w", name, err)
	}
	h := NewHierarchy()
	for _, row := range res.Rows {
		parent := ""
		if !row[1].IsNull() {
			parent = row[1].AsString()
		}
		if err := h.Add(row[0].AsString(), parent); err != nil {
			return nil, err
		}
	}
	d.hier, d.cachedTS = h, ts
	return h, nil
}
