package graph

import "testing"

func BenchmarkKronScale12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Kron(12, 16, GenOptions{Seed: uint64(i), Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformScale12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Uniform(12, 16, GenOptions{Seed: uint64(i), Symmetrize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	g, err := Kron(12, 16, GenOptions{Seed: 1, Symmetrize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Transpose()
	}
}

func BenchmarkDegreeStats(b *testing.B) {
	g, err := Kron(12, 16, GenOptions{Seed: 1, Symmetrize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDegreeStats(g)
	}
}

// BenchmarkRMATEdges times RMAT edge drawing alone at scale 17, degree
// 16, on the Kron partition and on SocialNetwork's.
func BenchmarkRMATEdges(b *testing.B) {
	const scale, degree = 17, 16
	partitions := []struct {
		name    string
		a, b, c float64
	}{
		{"kron", 0.57, 0.19, 0.19},
		{"social", 0.45, 0.22, 0.22},
	}
	for _, p := range partitions {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := rmatEdges(scale, degree, p.a, p.b, p.c, GenOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFromEdges times CSR construction alone on the scale-17,
// degree-16 edge lists the full-scale kron and urand datasets build from,
// symmetrized and deduplicated as the generators do.
func BenchmarkFromEdges(b *testing.B) {
	const scale, degree = 17, 16
	gens := []struct {
		name  string
		edges func(GenOptions) ([]Edge, error)
	}{
		{"kron", func(o GenOptions) ([]Edge, error) { return rmatEdges(scale, degree, 0.57, 0.19, 0.19, o) }},
		{"urand", func(o GenOptions) ([]Edge, error) { return uniformEdges(scale, degree, o) }},
	}
	for _, gen := range gens {
		for _, weighted := range []bool{false, true} {
			opt := GenOptions{Seed: 1, Symmetrize: true, Weighted: weighted}
			name := gen.name + "/unweighted"
			if weighted {
				name = gen.name + "/weighted"
			}
			b.Run(name, func(b *testing.B) {
				edges, err := gen.edges(opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := FromEdges(edges, opt.build(1<<scale)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
