package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current result bodies")

// goldenRequests is the body-golden matrix: all five kernels,
// nopf/stream/droplet/pickle, a non-LRU LLC policy, a private-level
// policy and one sampled request. Each body is pinned in
// testdata/golden/<name>.json; `dropletsim -json` must print the same
// bytes for the request the golden names (see cmd/dropletsim).
var goldenRequests = []struct{ name, body string }{
	{"pr-kron-droplet", `{"benchmark":"PR-kron","prefetcher":"droplet"}`},
	{"bfs-road-stream", `{"benchmark":"BFS-road","prefetcher":"stream"}`},
	{"cc-kron-nopf-drrip", `{"benchmark":"CC-kron","replacement":"drrip"}`},
	{"sssp-road-pickle", `{"benchmark":"SSSP-road","prefetcher":"pickle"}`},
	{"bc-road-droplet-l2srrip", `{"benchmark":"BC-road","prefetcher":"droplet","replacement_l2":"srrip"}`},
	{"bfs-road-pickle-sampled", `{"benchmark":"BFS-road","prefetcher":"pickle","replacement":"drrip","epoch_cycles":500,` +
		`"sampling":{"interval_epochs":64,"detail_epochs":2,"warmup_epochs":6,"warming":"none"}}`},
}

// TestSimulateGoldens pins the canonical /v1/simulate body of every
// golden request byte for byte. Regenerate with
// `go test ./internal/serve -run TestSimulateGoldens -update`; any
// change to a golden is a behaviour change.
func TestSimulateGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden requests simulate quick-scale runs")
	}
	srv, _ := newTestServer(t)
	dir := filepath.Join("testdata", "golden")
	var names []string
	for _, g := range goldenRequests {
		names = append(names, g.name+".json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(g.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", g.name, rec.Code, rec.Body.String())
		}
		path := filepath.Join(dir, g.name+".json")
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("%s: body differs from %s\n got: %s\nwant: %s", g.name, path, got, want)
		}
	}
	// A golden without a request would still be checked against the CLI
	// but never against the server.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !slices.Contains(names, filepath.Base(f)) {
			t.Errorf("%s has no entry in goldenRequests", f)
		}
	}
}
