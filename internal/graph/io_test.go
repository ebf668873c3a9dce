package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
0 1
1 2 7
% another comment

2 0
`
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("graph = %v", g)
	}
	if got := g.Neighbors(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	in := "0 1 5\n1 0 9\n0 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), BuildOptions{Weighted: true})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	if w := g.NeighborWeights(0); w[0] != 5 || w[1] != 1 {
		t.Errorf("weights(0) = %v (missing weight should default to 1)", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                // too few fields
		"x 1\n",              // bad source
		"0 y\n",              // bad destination
		"0 1 zzz\n",          // bad weight
		"0 99999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), BuildOptions{}); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	orig, err := Kron(9, 8, GenOptions{Seed: 3, Weighted: true, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf, BuildOptions{NumVertices: orig.NumVertices(), Weighted: true})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if back.NumEdges() != orig.NumEdges() {
		t.Fatalf("edges = %d, want %d", back.NumEdges(), orig.NumEdges())
	}
	for u := 0; u < orig.NumVertices(); u++ {
		a, b := orig.Neighbors(uint32(u)), back.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] || orig.NeighborWeights(uint32(u))[i] != back.NeighborWeights(uint32(u))[i] {
				t.Fatalf("vertex %d edge %d mismatch", u, i)
			}
		}
	}
}

func TestEdgeListRoundTripUnweighted(t *testing.T) {
	orig, err := Grid(10, 10, GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, BuildOptions{NumVertices: orig.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != orig.NumEdges() || back.Weighted() {
		t.Fatalf("round trip: %v", back)
	}
}

// FuzzReadEdgeList parses arbitrary text under every build-option
// combination (the low five bits of flags) and, whenever the parse
// succeeds, checks that the graph is valid, equals the original
// sort-based build of the same edges, and survives a
// WriteEdgeList/ReadEdgeList round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string, flags uint8) {
		// Inferred vertex counts follow the largest ID in the input;
		// bound them so the fuzzer does not allocate gigabyte offsets.
		const maxInferred = 1 << 12
		opt := BuildOptions{
			Symmetrize:    flags&1 != 0,
			Dedupe:        flags&2 != 0,
			DropSelfLoops: flags&4 != 0,
			Weighted:      flags&8 != 0,
		}
		if flags&16 != 0 {
			opt.NumVertices = 64
		}
		edges, err := readEdges(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, e := range edges {
			if opt.NumVertices == 0 && max(e.U, e.V) >= maxInferred {
				return
			}
		}
		g, err := ReadEdgeList(strings.NewReader(in), opt)
		want, wantErr := fromEdgesOracle(edges, opt)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadEdgeList error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if err := sameCSR(g, want); err != nil {
			t.Fatalf("against the oracle: %v", err)
		}

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		back, err := ReadEdgeList(&buf, BuildOptions{NumVertices: g.NumVertices(), Weighted: g.Weighted()})
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if err := sameCSR(back, g); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}
