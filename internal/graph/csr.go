// Package graph provides the Compressed Sparse Row (CSR) graph layout and
// synthetic graph generators used throughout the simulator.
//
// The CSR format mirrors Section II-A of the paper: an offset-pointer array
// (one entry per vertex pointing into the neighbor list), a neighbor-ID
// array (the "structure data"), and a per-vertex property array owned by
// each algorithm (the "property data"). Neighbor IDs are 32-bit, matching
// the paper's 4-byte scan granularity for unweighted graphs; weighted
// graphs pair each neighbor with a 32-bit weight for an 8-byte granularity.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Edge is a directed edge from U to V with an optional weight.
// For unweighted graphs W is ignored.
type Edge struct {
	U, V uint32
	W    int32
}

// CSR is an immutable compressed-sparse-row graph.
//
// The zero value is an empty graph with no vertices. Build one with
// FromEdges or a generator.
type CSR struct {
	offsets []int64  // len NumVertices()+1; offsets[v]..offsets[v+1] index neigh
	neigh   []uint32 // neighbor IDs, len NumEdges()
	weights []int32  // nil for unweighted graphs, else len NumEdges()
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed edges (stored neighbor entries).
func (g *CSR) NumEdges() int64 { return int64(len(g.neigh)) }

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the neighbor-ID slice of vertex v. The slice aliases
// internal storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the weight slice parallel to Neighbors(v).
// It panics if the graph is unweighted.
func (g *CSR) NeighborWeights(v uint32) []int32 {
	if g.weights == nil {
		panic("graph: NeighborWeights on unweighted graph")
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// EdgeRange returns the half-open index range [lo, hi) of vertex v's
// neighbors within the neighbor-ID array. The indices are what the memory
// tracer uses to compute structure-data addresses.
func (g *CSR) EdgeRange(v uint32) (lo, hi int64) {
	return g.offsets[v], g.offsets[v+1]
}

// NeighborAt returns the i-th stored neighbor ID (global edge index).
func (g *CSR) NeighborAt(i int64) uint32 { return g.neigh[i] }

// WeightAt returns the weight of the i-th stored edge (global edge index).
// It panics if the graph is unweighted.
func (g *CSR) WeightAt(i int64) int32 {
	if g.weights == nil {
		panic("graph: WeightAt on unweighted graph")
	}
	return g.weights[i]
}

// Offsets returns the offset-pointer array (len NumVertices()+1). The slice
// aliases internal storage and must not be modified.
func (g *CSR) Offsets() []int64 { return g.offsets }

// NeighborIDs returns the full neighbor-ID array. The slice aliases
// internal storage and must not be modified.
func (g *CSR) NeighborIDs() []uint32 { return g.neigh }

// String implements fmt.Stringer with a short summary.
func (g *CSR) String() string {
	kind := "unweighted"
	if g.Weighted() {
		kind = "weighted"
	}
	return fmt.Sprintf("CSR{%d vertices, %d edges, %s}", g.NumVertices(), g.NumEdges(), kind)
}

// BuildOptions controls FromEdges.
type BuildOptions struct {
	// NumVertices fixes the vertex count; 0 means 1+max ID seen.
	NumVertices int
	// Symmetrize adds the reverse of every edge (undirected graphs).
	Symmetrize bool
	// Dedupe removes duplicate (u,v) pairs. In weighted builds the weight
	// kept is that of the duplicate the (u,v) sort places first (see
	// FromEdges), which is deterministic but not input order.
	Dedupe bool
	// DropSelfLoops removes u==v edges.
	DropSelfLoops bool
	// Weighted keeps per-edge weights.
	Weighted bool
}

// FromEdges builds a CSR from an edge list. Neighbor lists are sorted by
// destination ID, matching the layout GAP produces.
//
// Unweighted builds group edges by destination, then scatter them by
// source in destination order, so each vertex's list lands sorted without
// a sort (and, with Dedupe, is then compacted). Weighted
// builds sort the whole edge list by (u,v) with pdqsort; among duplicate
// (u,v) edges, Dedupe keeps the one that sort leaves first. That rule is
// deterministic for a given input but is not input order; SSSP results
// depend on the weights it keeps, so weighted builds keep the sort.
func FromEdges(edges []Edge, opt BuildOptions) (*CSR, error) {
	n := opt.NumVertices
	for _, e := range edges {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	if opt.NumVertices > 0 {
		for _, e := range edges {
			if int(e.U) >= opt.NumVertices || int(e.V) >= opt.NumVertices {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, opt.NumVertices)
			}
		}
		n = opt.NumVertices
	}
	if opt.Weighted {
		return fromEdgesWeighted(edges, n, opt), nil
	}
	return fromEdgesUnweighted(edges, n, opt), nil
}

// fromEdgesUnweighted is the two-pass counting build: no intermediate
// edge copy and no sort, since vertex IDs are dense. Pass 1 groups the
// source of every stored edge by destination; pass 2 walks destinations
// in decreasing order and writes each into its source's list back to
// front, so every list comes out sorted.
func fromEdgesUnweighted(edges []Edge, n int, opt BuildOptions) *CSR {
	// offsets[u] counts u's out-degree and in[v] v's in-degree; the
	// inclusive prefix sums turn them into range ends, and each scatter
	// decrements them back to range starts. offsets[n] and in[n] stay
	// the total.
	offsets := make([]int64, n+1)
	in := make([]int64, n+1)
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		offsets[e.U]++
		in[e.V]++
		if opt.Symmetrize && e.U != e.V {
			offsets[e.V]++
			in[e.U]++
		}
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
		in[v] += in[v-1]
	}
	src := make([]uint32, in[n])
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		in[e.V]--
		src[in[e.V]] = e.U
		if opt.Symmetrize && e.U != e.V {
			in[e.U]--
			src[in[e.U]] = e.V
		}
	}
	neigh := make([]uint32, offsets[n])
	for v := n - 1; v >= 0; v-- {
		for _, u := range src[in[v]:in[v+1]] {
			offsets[u]--
			neigh[offsets[u]] = uint32(v)
		}
	}
	if !opt.Dedupe {
		return &CSR{offsets: offsets, neigh: neigh}
	}

	// Compact each sorted list down to w, rewriting the vertex's offset
	// as the list moves.
	w := int64(0)
	for v := 0; v < n; v++ {
		list := neigh[offsets[v]:offsets[v+1]]
		offsets[v] = w
		for i, x := range list {
			if i > 0 && x == list[i-1] {
				continue
			}
			neigh[w] = x
			w++
		}
	}
	offsets[n] = w
	if w < int64(len(neigh)) {
		neigh = slices.Clone(neigh[:w])
	}
	return &CSR{offsets: offsets, neigh: neigh}
}

// fromEdgesWeighted sorts a copy of the edge list by (u,v) and lays it out.
func fromEdgesWeighted(edges []Edge, n int, opt BuildOptions) *CSR {
	work := make([]Edge, 0, len(edges)*2)
	for _, e := range edges {
		if opt.DropSelfLoops && e.U == e.V {
			continue
		}
		work = append(work, e)
		if opt.Symmetrize && e.U != e.V {
			work = append(work, Edge{U: e.V, V: e.U, W: e.W})
		}
	}

	slices.SortFunc(work, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	if opt.Dedupe {
		work = slices.CompactFunc(work, func(a, b Edge) bool { return a.U == b.U && a.V == b.V })
	}

	g := &CSR{
		offsets: make([]int64, n+1),
		neigh:   make([]uint32, len(work)),
		weights: make([]int32, len(work)),
	}
	for i, e := range work {
		g.offsets[e.U+1]++
		g.neigh[i] = e.V
		g.weights[i] = e.W
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g
}

// Transpose returns the reverse graph (every edge u→v becomes v→u).
// Weights follow their edges.
func (g *CSR) Transpose() *CSR {
	n := g.NumVertices()
	t := &CSR{
		offsets: make([]int64, n+1),
		neigh:   make([]uint32, len(g.neigh)),
	}
	if g.weights != nil {
		t.weights = make([]int32, len(g.weights))
	}
	for _, v := range g.neigh {
		t.offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		t.offsets[v+1] += t.offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, t.offsets[:n])
	for u := 0; u < n; u++ {
		lo, hi := g.EdgeRange(uint32(u))
		for i := lo; i < hi; i++ {
			v := g.neigh[i]
			t.neigh[cursor[v]] = uint32(u)
			if g.weights != nil {
				t.weights[cursor[v]] = g.weights[i]
			}
			cursor[v]++
		}
	}
	return t
}

// Validate checks structural invariants: monotone offsets, in-range
// neighbor IDs, and weight-array consistency. It returns the first
// violation found.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 {
		if len(g.neigh) != 0 {
			return errors.New("graph: neighbors without offsets")
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return errors.New("graph: offsets[0] != 0")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if g.offsets[n] != int64(len(g.neigh)) {
		return fmt.Errorf("graph: offsets[n]=%d != len(neigh)=%d", g.offsets[n], len(g.neigh))
	}
	for i, v := range g.neigh {
		if int(v) >= n {
			return fmt.Errorf("graph: neighbor %d at index %d out of range (%d vertices)", v, i, n)
		}
	}
	if g.weights != nil && len(g.weights) != len(g.neigh) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.weights), len(g.neigh))
	}
	return nil
}
