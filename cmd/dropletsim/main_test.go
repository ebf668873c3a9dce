package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"droplet/internal/simreq"
)

// argsOf renders a canonical request as dropletsim request flags.
func argsOf(q simreq.Request) []string {
	algo, dataset, _ := strings.Cut(q.Benchmark, "-")
	args := []string{
		"-algo", algo, "-dataset", dataset, "-scale", q.Scale,
		"-cores", strconv.Itoa(q.Cores), "-prefetcher", q.Prefetcher,
		"-replacement", q.Replacement, "-replacement-l1", q.ReplacementL1, "-replacement-l2", q.ReplacementL2,
		"-epoch", strconv.FormatInt(q.EpochCycles, 10),
	}
	if s := q.Sampling; s != nil {
		args = append(args,
			"-sample-interval", strconv.Itoa(s.IntervalEpochs),
			"-sample-detail", strconv.Itoa(s.DetailEpochs),
			"-sample-warmup", strconv.Itoa(s.WarmupEpochs),
			"-warming", s.Warming)
	}
	return args
}

// runCLI runs dropletsim in process and returns its stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("dropletsim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// TestJSONMatchesServerGoldens holds the CLI to the service contract:
// for every pinned /v1/simulate body, `dropletsim -json` with the flags
// of that body's request prints the same bytes, through the
// materialized and the streaming trace path alike.
func TestJSONMatchesServerGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden requests simulate quick-scale runs")
	}
	goldens, err := filepath.Glob(filepath.Join("..", "..", "internal", "serve", "testdata", "golden", "*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no body goldens found (%v)", err)
	}
	for _, path := range goldens {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Request simreq.Request `json:"request"`
		}
		if err := json.Unmarshal(want, &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		args := append(argsOf(body.Request), "-json")
		for _, mode := range [][]string{nil, {"-stream"}} {
			got := runCLI(t, append(args, mode...)...)
			if !bytes.Equal(got, want) {
				t.Errorf("%s %v: dropletsim -json differs from the server body\n got: %s\nwant: %s",
					filepath.Base(path), mode, got, want)
			}
		}
	}
}

// TestStreamTelemetryMatchesMaterialized checks that -telemetry works
// under -stream and writes the same epoch stream as the materialized
// path, here for a sampled run under the gate recipe.
func TestStreamTelemetryMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates twice")
	}
	dir := t.TempDir()
	base := []string{"-algo", "BFS", "-dataset", "road", "-prefetcher", "pickle", "-replacement", "drrip",
		"-epoch", "500", "-sample-interval", "64", "-sample-detail", "2", "-sample-warmup", "6", "-warming", "none",
		"-telemetry", "jsonl"}
	mat, str := filepath.Join(dir, "mat.jsonl"), filepath.Join(dir, "stream.jsonl")
	runCLI(t, append(base, "-telemetry-out", mat)...)
	runCLI(t, append(base, "-telemetry-out", str, "-stream")...)
	a, err := os.ReadFile(mat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(str)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("streamed epoch file (%d bytes) differs from the materialized one (%d bytes)", len(b), len(a))
	}
}

// TestMatrixMatchesTableGolden runs the sampled CI smoke matrix through
// the flags and requires the table golden's bytes.
func TestMatrixMatchesTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment matrix")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "golden", "sampled.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := runCLI(t, "-matrix", "fig1,fig3", "-benchmarks", "PR-kron,BFS-road,CC-kron", "-scale", "quick",
		"-sample-interval", "64", "-sample-detail", "2", "-sample-warmup", "6", "-warming", "none", "-epoch", "500",
		"-jobs", "2")
	if !bytes.Equal(got, want) {
		t.Errorf("matrix output differs from the table golden\n got: %s\nwant: %s", got, want)
	}
}

// TestRejectedCommandLines covers the errors that need no simulation.
func TestRejectedCommandLines(t *testing.T) {
	err := run([]string{"-dataset", "nope", "-cores", "-1"}, io.Discard, io.Discard)
	var fe simreq.FieldErrors
	if !errors.As(err, &fe) || len(fe) != 2 || fe[0].Field != "benchmark" || fe[1].Field != "cores" {
		t.Errorf("bad request flags: got %v, want benchmark and cores field errors", err)
	}
	err = run([]string{"-json", "-graphfile", "g.el"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-graphfile") {
		t.Errorf("-json -graphfile: got %v, want a rejection naming -graphfile", err)
	}
	err = run([]string{"-graphfile", "g.el", "-dataset", "road"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-dataset") {
		t.Errorf("-graphfile -dataset: got %v, want a rejection naming -dataset", err)
	}
	epochs := filepath.Join(t.TempDir(), "epochs.jsonl")
	err = run([]string{"-graphfile", "missing.el", "-telemetry", "jsonl", "-telemetry-out", epochs}, io.Discard, io.Discard)
	if _, statErr := os.Stat(epochs); err == nil || !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("failed telemetry run: got %v and %v, want an error and no epoch file left", err, statErr)
	}
	err = run([]string{"-matrix", "fig1,nope"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "valid: table1") {
		t.Errorf("unknown experiment id: got %v, want an error listing the valid ids", err)
	}
	err = run([]string{"-matrix", "fig1", "-cores", "8", "-json"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-cores, -json") {
		t.Errorf("-matrix with single-run flags: got %v, want a rejection naming them", err)
	}
	err = run([]string{"-o", "tables.txt", "-telemetry-dir", "epochs"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-o, -telemetry-dir") {
		t.Errorf("single run with -matrix flags: got %v, want a rejection naming them", err)
	}
	if err := run([]string{"-llc", "64"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("-llc: got %v, want a usage error", err)
	}
}
