package graph

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, edges []Edge, opt BuildOptions) *CSR {
	t.Helper()
	g, err := FromEdges(edges, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 0}}
	g := mustBuild(t, edges, BuildOptions{})
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("Neighbors(2) = %v, want [0]", got)
	}
	if g.Degree(1) != 1 {
		t.Errorf("Degree(1) = %d, want 1", g.Degree(1))
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := mustBuild(t, nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	g2 := mustBuild(t, nil, BuildOptions{NumVertices: 5})
	if g2.NumVertices() != 5 || g2.NumEdges() != 0 {
		t.Fatalf("vertex-only graph: %v", g2)
	}
	if d := g2.Degree(4); d != 0 {
		t.Fatalf("Degree(4) = %d, want 0", d)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	_, err := FromEdges([]Edge{{U: 0, V: 9}}, BuildOptions{NumVertices: 3})
	if err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFromEdgesSymmetrize(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("Neighbors(1) = %v, want [0]", got)
	}
}

func TestFromEdgesDedupeAndSelfLoops(t *testing.T) {
	edges := []Edge{{U: 1, V: 1}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 0, V: 2}}
	g := mustBuild(t, edges, BuildOptions{Dedupe: true, DropSelfLoops: true})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
}

func TestWeightedGraph(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 7}, {U: 0, V: 2, W: 3}}
	g := mustBuild(t, edges, BuildOptions{Weighted: true})
	if !g.Weighted() {
		t.Fatal("Weighted() = false")
	}
	if w := g.NeighborWeights(0); !reflect.DeepEqual(w, []int32{7, 3}) {
		t.Errorf("NeighborWeights(0) = %v, want [7 3]", w)
	}
	if g.WeightAt(1) != 3 {
		t.Errorf("WeightAt(1) = %d, want 3", g.WeightAt(1))
	}
}

func TestUnweightedPanics(t *testing.T) {
	g := mustBuild(t, []Edge{{U: 0, V: 1}}, BuildOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("NeighborWeights on unweighted graph did not panic")
		}
	}()
	g.NeighborWeights(0)
}

func TestTranspose(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 6}, {U: 2, V: 1, W: 7}}
	g := mustBuild(t, edges, BuildOptions{Weighted: true})
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if got := tr.Neighbors(1); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("transpose Neighbors(1) = %v, want [0 2]", got)
	}
	// Weight follows the edge 0->1 (w=5) and 2->1 (w=7).
	if w := tr.NeighborWeights(1); !reflect.DeepEqual(w, []int32{5, 7}) {
		t.Errorf("transpose weights(1) = %v, want [5 7]", w)
	}
	// Transposing twice restores the original.
	back := tr.Transpose()
	if !reflect.DeepEqual(back.offsets, g.offsets) || !reflect.DeepEqual(back.neigh, g.neigh) {
		t.Error("double transpose != original")
	}
}

// propEdges converts quick-generated raw pairs into a bounded edge list.
func propEdges(raw []uint32, n int) []Edge {
	edges := make([]Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, Edge{U: raw[i] % uint32(n), V: raw[i+1] % uint32(n), W: int32(raw[i]%100) + 1})
	}
	return edges
}

func TestPropCSRPreservesEdgeMultiset(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 64
		edges := propEdges(raw, n)
		g, err := FromEdges(edges, BuildOptions{NumVertices: n})
		if err != nil || g.Validate() != nil {
			return false
		}
		// Reconstruct the edge multiset from the CSR.
		var got, want []uint64
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(uint32(u)) {
				got = append(got, uint64(u)<<32|uint64(v))
			}
		}
		for _, e := range edges {
			want = append(want, uint64(e.U)<<32|uint64(e.V))
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 48
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n, Weighted: true})
		if err != nil {
			return false
		}
		back := g.Transpose().Transpose()
		return reflect.DeepEqual(back.offsets, g.offsets) &&
			reflect.DeepEqual(back.neigh, g.neigh) &&
			reflect.DeepEqual(back.weights, g.weights)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropDegreeSumEqualsEdges(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 32
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n})
		if err != nil {
			return false
		}
		var sum int64
		for v := 0; v < n; v++ {
			sum += int64(g.Degree(uint32(v)))
		}
		return sum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		const n = 40
		g, err := FromEdges(propEdges(raw, n), BuildOptions{NumVertices: n})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			nb := g.Neighbors(uint32(v))
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fromEdgesOracle is the original sort.Slice build of FromEdges, kept
// verbatim as the reference the counting build must match byte for byte.
func fromEdgesOracle(edges []Edge, opt BuildOptions) (*CSR, error) {
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

	sort.Slice(work, func(i, j int) bool {
		if work[i].U != work[j].U {
			return work[i].U < work[j].U
		}
		return work[i].V < work[j].V
	})
	if opt.Dedupe {
		out := work[:0]
		for i, e := range work {
			if i > 0 && e.U == work[i-1].U && e.V == work[i-1].V {
				continue
			}
			out = append(out, e)
		}
		work = out
	}

	g := &CSR{
		offsets: make([]int64, n+1),
		neigh:   make([]uint32, len(work)),
	}
	if opt.Weighted {
		g.weights = make([]int32, len(work))
	}
	for i, e := range work {
		g.offsets[e.U+1]++
		g.neigh[i] = e.V
		if opt.Weighted {
			g.weights[i] = e.W
		}
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	return g, nil
}

// sameCSR reports the first difference between got and want, comparing
// offsets, neighbor IDs and weights element for element.
func sameCSR(got, want *CSR) error {
	switch {
	case !slices.Equal(got.offsets, want.offsets):
		return fmt.Errorf("offsets differ: %d vs %d vertices", got.NumVertices(), want.NumVertices())
	case !slices.Equal(got.neigh, want.neigh):
		return fmt.Errorf("neighbor IDs differ: %d vs %d edges", got.NumEdges(), want.NumEdges())
	case (got.weights == nil) != (want.weights == nil):
		return fmt.Errorf("weighted = %v, want %v", got.Weighted(), want.Weighted())
	case !slices.Equal(got.weights, want.weights):
		return errors.New("weights differ")
	}
	return nil
}

// TestFromEdgesMatchesOracle pins FromEdges to the original sort-based
// build on every generator's edge list, weighted and unweighted, under
// every combination of build options.
func TestFromEdgesMatchesOracle(t *testing.T) {
	type input struct {
		name  string
		n     int
		edges func(opt GenOptions) ([]Edge, error)
	}
	inputs := []input{
		{"kron", 1 << 10, func(o GenOptions) ([]Edge, error) { return rmatEdges(10, 8, 0.57, 0.19, 0.19, o) }},
		{"urand", 1 << 10, func(o GenOptions) ([]Edge, error) { return uniformEdges(10, 8, o) }},
		{"grid", 24 * 40, func(o GenOptions) ([]Edge, error) { return gridEdges(24, 40, o) }},
		{"social", 1 << 9, func(o GenOptions) ([]Edge, error) { return socialEdges(9, 12, o) }},
		{"empty", 0, func(GenOptions) ([]Edge, error) { return nil, nil }},
		{"single", 1, func(o GenOptions) ([]Edge, error) { return []Edge{{U: 0, V: 0, W: 3}}, nil }},
	}
	for _, in := range inputs {
		for _, weighted := range []bool{false, true} {
			edges, err := in.edges(GenOptions{Seed: 7, Weighted: weighted, MaxWeight: 4})
			if err != nil {
				t.Fatal(err)
			}
			for mask := 0; mask < 16; mask++ {
				opt := BuildOptions{
					Symmetrize:    mask&1 != 0,
					Dedupe:        mask&2 != 0,
					DropSelfLoops: mask&4 != 0,
					Weighted:      weighted,
				}
				if mask&8 != 0 {
					opt.NumVertices = in.n
				}
				want, err := fromEdgesOracle(edges, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := mustBuild(t, edges, opt)
				if err := sameCSR(got, want); err != nil {
					t.Errorf("%s weighted=%v %+v: %v", in.name, weighted, opt, err)
				}
			}
		}
	}
}
