package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestKronDeterministicAndValid(t *testing.T) {
	g1, err := Kron(8, 8, GenOptions{Seed: 42})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if err := g1.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g1.NumVertices() != 256 {
		t.Fatalf("NumVertices = %d, want 256", g1.NumVertices())
	}
	g2, err := Kron(8, 8, GenOptions{Seed: 42})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	g3, err := Kron(8, 8, GenOptions{Seed: 43})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if g1.NumEdges() == g3.NumEdges() && equalNeigh(g1, g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalNeigh(a, b *CSR) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := int64(0); i < a.NumEdges(); i++ {
		if a.NeighborAt(i) != b.NeighborAt(i) {
			return false
		}
	}
	return true
}

func TestKronIsSkewed(t *testing.T) {
	g, err := Kron(10, 8, GenOptions{Seed: 7})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini < 0.4 {
		t.Errorf("kron Gini = %.3f, want heavy-tailed (>= 0.4)", s.Gini)
	}
	if s.Max < 8*s.Median {
		t.Errorf("kron max degree %d not ≫ median %d", s.Max, s.Median)
	}
}

func TestUniformIsBalanced(t *testing.T) {
	g, err := Uniform(10, 8, GenOptions{Seed: 7})
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini > 0.25 {
		t.Errorf("urand Gini = %.3f, want balanced (<= 0.25)", s.Gini)
	}
	if s.Isolated > g.NumVertices()/10 {
		t.Errorf("urand has %d isolated vertices", s.Isolated)
	}
}

func TestGridShape(t *testing.T) {
	g, err := Grid(20, 30, GenOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 600 {
		t.Fatalf("NumVertices = %d, want 600", g.NumVertices())
	}
	s := ComputeDegreeStats(g)
	if s.Mean < 3 || s.Mean > 5 {
		t.Errorf("grid mean degree = %.2f, want ~4", s.Mean)
	}
	// Grid with shortcuts should be one component.
	if c := ConnectedComponentsCount(g); c != 1 {
		t.Errorf("grid components = %d, want 1", c)
	}
}

func TestWeightedGeneration(t *testing.T) {
	g, err := Kron(7, 6, GenOptions{Seed: 3, Weighted: true, MaxWeight: 10})
	if err != nil {
		t.Fatalf("Kron: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("expected weighted graph")
	}
	for i := int64(0); i < g.NumEdges(); i++ {
		w := g.WeightAt(i)
		if w < 1 || w > 10 {
			t.Fatalf("weight %d at %d out of [1,10]", w, i)
		}
	}
}

func TestSocialNetworkShape(t *testing.T) {
	g, err := SocialNetwork(10, 10, GenOptions{Seed: 5, Symmetrize: true})
	if err != nil {
		t.Fatalf("SocialNetwork: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := ComputeDegreeStats(g)
	if s.Gini < 0.3 {
		t.Errorf("social Gini = %.3f, want skewed (>= 0.3)", s.Gini)
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := RMAT(0, 8, 0.5, 0.2, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT scale 0 should error")
	}
	if _, err := RMAT(5, 0, 0.5, 0.2, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT degree 0 should error")
	}
	if _, err := RMAT(5, 4, 0.6, 0.3, 0.2, GenOptions{}); err == nil {
		t.Error("RMAT bad partition should error")
	}
	for _, p := range [][3]float64{
		{-0.1, 0.2, 0.2}, {0.5, -0.2, 0.2}, {0.5, 0.2, -0.2},
		{math.NaN(), 0.2, 0.2}, {0.5, math.NaN(), 0.2}, {0.5, 0.2, math.NaN()},
		{math.Inf(-1), 0.2, 0.2},
	} {
		if _, err := RMAT(5, 4, p[0], p[1], p[2], GenOptions{}); err == nil {
			t.Errorf("RMAT partition %v should error", p)
		}
	}
	if _, err := Uniform(0, 8, GenOptions{}); err == nil {
		t.Error("Uniform scale 0 should error")
	}
	if _, err := Uniform(4, 0, GenOptions{}); err == nil {
		t.Error("Uniform degree 0 should error")
	}
	if _, err := Grid(0, 5, GenOptions{}); err == nil {
		t.Error("Grid 0 rows should error")
	}
}

// rmatEdgesOracle is the original float-compare RMAT loop, kept verbatim
// as the reference the integer-threshold loop must match edge for edge.
func rmatEdgesOracle(scale, degree int, a, b, c float64, opt GenOptions) ([]Edge, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", scale)
	}
	if degree < 1 {
		return nil, fmt.Errorf("graph: RMAT degree %d < 1", degree)
	}
	if a+b+c >= 1.0 {
		return nil, fmt.Errorf("graph: RMAT partition a+b+c=%.3f must be < 1", a+b+c)
	}
	n := 1 << scale
	m := n * degree
	r := NewRNG(opt.Seed ^ 0x7a3d_91c4_55aa_0f0f)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		var u, v uint32
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a:
				// upper-left: no bits set
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	opt.assignWeights(edges, r)
	return edges, nil
}

// TestRMATMatchesOracle pins rmatEdges to the float-compare loop on the
// Kron, social, dyadic and a=0 partitions. Weighted lists draw their
// weights after the edges, so they also check that the RNG state is
// handed on exactly.
func TestRMATMatchesOracle(t *testing.T) {
	partitions := []struct {
		name    string
		a, b, c float64
	}{
		{"kron", 0.57, 0.19, 0.19},
		{"social", 0.45, 0.22, 0.22},
		{"quarters", 0.25, 0.25, 0.25},
		{"dyadic", 0.5, 0.25, 0.125},
		{"a0", 0, 0.3, 0.3},
	}
	for _, p := range partitions {
		for _, scale := range []int{1, 10, 17} {
			degree := 8
			if scale == 17 {
				degree = 1
			}
			for _, seed := range []uint64{1, 9001, 0xdeadbeef} {
				for _, weighted := range []bool{false, true} {
					opt := GenOptions{Seed: seed, Weighted: weighted}
					want, err := rmatEdgesOracle(scale, degree, p.a, p.b, p.c, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rmatEdges(scale, degree, p.a, p.b, p.c, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s scale=%d seed=%d weighted=%v: edge lists differ", p.name, scale, seed, weighted)
					}
				}
			}
		}
	}
}

// TestRMATThreshold checks p < t ⇔ k < rmatThreshold(t) at the boundary:
// the threshold's own Float64 value is not below t, and the one before
// it is.
func TestRMATThreshold(t *testing.T) {
	for _, p := range []float64{
		0, 0.19, 0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.45 + 0.22, 0.125, 1.0 / 3,
		1e-300, math.SmallestNonzeroFloat64, math.Nextafter(1, 0),
	} {
		k := rmatThreshold(p)
		if k > 1<<53 {
			t.Errorf("rmatThreshold(%g) = %d > 2^53", p, k)
		}
		if k < 1<<53 && float64(k)/(1<<53) < p {
			t.Errorf("rmatThreshold(%g) = %d, but k/2^53 < t", p, k)
		}
		if k > 0 && float64(k-1)/(1<<53) >= p {
			t.Errorf("rmatThreshold(%g) = %d, but (k-1)/2^53 >= t", p, k)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(1).Perm(100)
	seen := make(map[uint32]bool, 100)
	for _, v := range p {
		if v >= 100 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestDegreeStatsSimple(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, BuildOptions{NumVertices: 4})
	s := ComputeDegreeStats(g)
	if s.Min != 0 || s.Max != 2 || s.Edges != 3 || s.Isolated != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConnectedComponentsCount(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}, BuildOptions{NumVertices: 6})
	// Components: {0,1}, {2,3}, {4}, {5}.
	if c := ConnectedComponentsCount(g); c != 4 {
		t.Errorf("components = %d, want 4", c)
	}
}

func TestLargestComponentSource(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}, {U: 1, V: 0}}, BuildOptions{})
	if s := LargestComponentSource(g); s != 3 {
		t.Errorf("source = %d, want 3", s)
	}
}
