package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"droplet/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current tables")

// goldenMatrices are the CI smoke matrices: each renders its experiment
// ids on one fresh quick-scale suite over PR-kron, BFS-road and CC-kron,
// exactly as `dropletsim -matrix <ids> -benchmarks PR-kron,BFS-road,CC-kron
// -o <file>` writes them (each table followed by a newline).
var goldenMatrices = []struct {
	name   string
	ids    []string
	sample sim.Sampling
	epoch  int64
}{
	{name: "smoke", ids: []string{"fig1", "fig3", "fig4b", "fig5", "fig7"}},
	{name: "repl", ids: []string{"repl"}},
	{name: "pfx", ids: []string{"pfx"}},
	// The sampling gate recipe: -sample-interval 64 -sample-detail 2
	// -sample-warmup 6 -warming none -epoch 500.
	{name: "sampled", ids: []string{"fig1", "fig3"}, epoch: 500, sample: sim.Sampling{
		IntervalEpochs: 64, DetailEpochs: 2, WarmupEpochs: 6, Warming: sim.WarmNone,
	}},
}

// TestTableGoldens pins the rendered paper tables byte for byte. A
// refactor must leave them unchanged; a deliberate behaviour change
// regenerates them with `go test ./internal/exp -run TestTableGoldens
// -update` and names the change.
func TestTableGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrices simulate dozens of quick-scale runs")
	}
	for _, m := range goldenMatrices {
		t.Run(m.name, func(t *testing.T) {
			s := testSuite()
			s.Jobs = 2
			s.Sample = m.sample
			s.EpochCycles = m.epoch
			var buf bytes.Buffer
			for _, id := range m.ids {
				e, err := ExperimentByID(id)
				if err != nil {
					t.Fatal(err)
				}
				text, err := e.Run(s)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				buf.WriteString(text)
				buf.WriteByte('\n')
			}
			path := filepath.Join("testdata", "golden", m.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%s differs from %s:\n%s", m.name, path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(texts differ only in trailing bytes)"
}
