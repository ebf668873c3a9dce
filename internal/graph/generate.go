package graph

import (
	"fmt"
	"math"
)

// GenOptions configures the synthetic graph generators.
type GenOptions struct {
	Seed       uint64
	Weighted   bool
	MaxWeight  int32 // weights drawn uniformly from [1, MaxWeight]; default 255
	Symmetrize bool  // build the undirected version (GAP default for kron/urand)
}

func (o GenOptions) maxWeight() int32 {
	if o.MaxWeight <= 0 {
		return 255
	}
	return o.MaxWeight
}

func (o GenOptions) assignWeights(edges []Edge, r *RNG) {
	if !o.Weighted {
		return
	}
	mw := o.maxWeight()
	for i := range edges {
		edges[i].W = 1 + int32(r.Intn(int(mw)))
	}
}

// build is the FromEdges configuration every generator uses on its n
// vertices: deduplicated, without self loops.
func (o GenOptions) build(n int) BuildOptions {
	return BuildOptions{
		NumVertices:   n,
		Symmetrize:    o.Symmetrize,
		Dedupe:        true,
		DropSelfLoops: true,
		Weighted:      o.Weighted,
	}
}

// RMAT generates a 2^scale-vertex RMAT graph with degree*2^scale edges
// using the given partition probabilities, which must be non-negative
// with a+b+c < 1. GAP's Kronecker generator uses a=0.57, b=c=0.19 (see
// Kron). Social-network proxies use a skewed but less extreme partition.
func RMAT(scale, degree int, a, b, c float64, opt GenOptions) (*CSR, error) {
	edges, err := rmatEdges(scale, degree, a, b, c, opt)
	if err != nil {
		return nil, err
	}
	return FromEdges(edges, opt.build(1<<scale))
}

// rmatEdges draws RMAT's edge list, weighted per opt.
//
// Each level of the recursion draws p = Float64() and picks a quadrant by
// comparing p with a, a+b and a+b+c. Float64 is k/2^53 for the integer
// k = Uint64()>>11, exactly, so p < t ⇔ k < ceil(t·2^53): the loop
// compares k with integer thresholds instead, and sets the bits without
// branching. The draws, and so the edges, are exactly those of the float
// compares (see DESIGN.md "RMAT sampling").
func rmatEdges(scale, degree int, a, b, c float64, opt GenOptions) ([]Edge, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", scale)
	}
	if degree < 1 {
		return nil, fmt.Errorf("graph: RMAT degree %d < 1", degree)
	}
	if !(a >= 0 && b >= 0 && c >= 0) {
		return nil, fmt.Errorf("graph: RMAT partition a=%g b=%g c=%g must be non-negative", a, b, c)
	}
	if a+b+c >= 1.0 {
		return nil, fmt.Errorf("graph: RMAT partition a+b+c=%.3f must be < 1", a+b+c)
	}
	tA, tAB, tABC := rmatThreshold(a), rmatThreshold(a+b), rmatThreshold(a+b+c)
	n := 1 << scale
	r := NewRNG(opt.Seed ^ 0x7a3d_91c4_55aa_0f0f)
	edges := make([]Edge, n*degree)
	for i := range edges {
		var u, v uint64
		for range scale {
			k := r.Uint64() >> 11
			// geT is 1 when k >= T (p >= t), else 0; T-1-k wraps
			// past 2^63 exactly when k >= T, T = 0 included.
			geA := (tA - 1 - k) >> 63
			geAB := (tAB - 1 - k) >> 63
			geABC := (tABC - 1 - k) >> 63
			u = u<<1 | geAB
			v = v<<1 | (geA ^ geAB) | geABC
		}
		edges[i] = Edge{U: uint32(u), V: uint32(v)}
	}
	opt.assignWeights(edges, r)
	return edges, nil
}

// rmatThreshold returns ceil(t·2^53), the least k whose Float64 value
// k/2^53 is not below t, for 0 <= t < 1. Scaling by 2^53 is exact.
func rmatThreshold(t float64) uint64 {
	return uint64(math.Ceil(t * (1 << 53)))
}

// Kron generates a GAP-style Kronecker graph (RMAT with a=0.57, b=c=0.19),
// the "kron" dataset of Table III.
func Kron(scale, degree int, opt GenOptions) (*CSR, error) {
	return RMAT(scale, degree, 0.57, 0.19, 0.19, opt)
}

// Uniform generates a 2^scale-vertex uniform-random graph with
// degree*2^scale edges (the "urand" dataset of Table III): both endpoints
// of every edge are drawn uniformly.
func Uniform(scale, degree int, opt GenOptions) (*CSR, error) {
	edges, err := uniformEdges(scale, degree, opt)
	if err != nil {
		return nil, err
	}
	return FromEdges(edges, opt.build(1<<scale))
}

// uniformEdges draws Uniform's edge list, weighted per opt.
func uniformEdges(scale, degree int, opt GenOptions) ([]Edge, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: Uniform scale %d out of range [1,30]", scale)
	}
	if degree < 1 {
		return nil, fmt.Errorf("graph: Uniform degree %d < 1", degree)
	}
	n := 1 << scale
	m := n * degree
	r := NewRNG(opt.Seed ^ 0x1234_5678_9abc_def0)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	opt.assignWeights(edges, r)
	return edges, nil
}

// Grid generates a rows×cols 2D mesh: each cell connects to its 4-neighbors.
// A small fraction of extra "diagonal highway" edges is added so the
// diameter is large but not degenerate, approximating a road network (the
// "road" dataset of Table III: low degree, huge diameter, high locality).
func Grid(rows, cols int, opt GenOptions) (*CSR, error) {
	edges, err := gridEdges(rows, cols, opt)
	if err != nil {
		return nil, err
	}
	opt.Symmetrize = true // roads are undirected
	return FromEdges(edges, opt.build(rows*cols))
}

// gridEdges lists Grid's mesh and shortcut edges, weighted per opt.
func gridEdges(rows, cols int, opt GenOptions) ([]Edge, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: Grid %dx%d invalid", rows, cols)
	}
	n := rows * cols
	if n > 1<<30 {
		return nil, fmt.Errorf("graph: Grid %dx%d too large", rows, cols)
	}
	id := func(rr, cc int) uint32 { return uint32(rr*cols + cc) }
	r := NewRNG(opt.Seed ^ 0xfeed_f00d_dead_beef)
	edges := make([]Edge, 0, 2*n+n/16)
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			if cc+1 < cols {
				edges = append(edges, Edge{U: id(rr, cc), V: id(rr, cc+1)})
			}
			if rr+1 < rows {
				edges = append(edges, Edge{U: id(rr, cc), V: id(rr+1, cc)})
			}
		}
	}
	// Sparse shortcut edges (~1/16 of vertices) emulate highway ramps.
	for i := 0; i < n/16; i++ {
		edges = append(edges, Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	opt.assignWeights(edges, r)
	return edges, nil
}

// SocialNetwork generates an orkut/livejournal-style proxy: an RMAT graph
// with a moderately skewed partition whose vertex IDs are then randomly
// relabeled. Real SNAP social graphs have heavy-tailed degrees but little
// ID locality; the relabeling destroys the RMAT generator's ID locality to
// match.
func SocialNetwork(scale, degree int, opt GenOptions) (*CSR, error) {
	edges, err := socialEdges(scale, degree, opt)
	if err != nil {
		return nil, err
	}
	return FromEdges(edges, opt.build(1<<scale))
}

// socialEdges lists SocialNetwork's relabeled edges, weighted per opt.
func socialEdges(scale, degree int, opt GenOptions) ([]Edge, error) {
	g, err := RMAT(scale, degree, 0.45, 0.22, 0.22, GenOptions{
		Seed:     opt.Seed ^ 0x50c1a1,
		Weighted: false, // relabel first, then weights
	})
	if err != nil {
		return nil, err
	}
	r := NewRNG(opt.Seed ^ 0x9e11_a5e5)
	perm := r.Perm(g.NumVertices())
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			edges = append(edges, Edge{U: perm[u], V: perm[v]})
		}
	}
	opt.assignWeights(edges, r)
	return edges, nil
}
