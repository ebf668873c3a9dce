package simreq

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"droplet/internal/workload"
)

// TestCanonicalGolden pins the canonical encoding and hash of the
// default request. These bytes are the cross-process cache-key contract
// (scheduler, telemetry file names, HTTP service): if this test breaks,
// every previously published result hash is invalidated — bump Version
// instead of silently changing the encoding.
func TestCanonicalGolden(t *testing.T) {
	r := Request{Benchmark: "pr-kron"}
	got, err := r.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":1,"benchmark":"PR-kron","scale":"quick","cores":4,"prefetcher":"nopf","replacement":"lru","replacement_l1":"lru","replacement_l2":"lru"}`
	if string(got) != want {
		t.Errorf("canonical JSON:\n got %s\nwant %s", got, want)
	}
	hash, err := r.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = "4d5ea495dcbe6be016a8d3b5edef73d387889933bd1fcb19ab106bf5d58149e0"
	if hash != wantHash {
		t.Errorf("Hash() = %s, want %s", hash, wantHash)
	}
}

// TestNormalizeIdempotent checks spelling-insensitive equivalence: the
// same simulation spelled differently hashes identically, and
// normalizing twice is a fixed point.
func TestNormalizeIdempotent(t *testing.T) {
	a := Request{Benchmark: "pr-kron", Scale: "quick", Cores: 4, Prefetcher: "nopf"}
	b := Request{SchemaVersion: 1, Benchmark: "PR-kron", Replacement: "lru"}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent spellings hash differently: %s vs %s", ha, hb)
	}
	n, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Errorf("Normalize not idempotent: %+v vs %+v", n, n2)
	}
}

// TestHashDistinguishes checks every field participates in the identity.
func TestHashDistinguishes(t *testing.T) {
	base := Request{Benchmark: "PR-kron"}
	variants := []Request{
		{Benchmark: "BFS-kron"},
		{Benchmark: "PR-road"},
		{Benchmark: "PR-kron", Scale: "full"},
		{Benchmark: "PR-kron", Cores: 8},
		{Benchmark: "PR-kron", Prefetcher: "droplet"},
		{Benchmark: "PR-kron", Replacement: "drrip"},
		{Benchmark: "PR-kron", ReplacementL1: "ship"},
		{Benchmark: "PR-kron", ReplacementL2: "srrip"},
		{Benchmark: "PR-kron", Variant: "no L2"},
		{Benchmark: "PR-kron", EpochCycles: 20000},
		{Benchmark: "PR-kron", Sampling: &Sampling{IntervalEpochs: 64}},
		{Benchmark: "PR-kron", Sampling: &Sampling{IntervalEpochs: 64, Warming: "none"}},
	}
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{baseHash: -1}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("variants %d and %d hash identically: %+v vs %+v", prev, i, v, variants[max(prev, 0)])
		}
		seen[h] = i
	}
}

// TestDecodeStrict checks strict decoding: unknown fields are rejected,
// and a round trip through canonical bytes is the identity.
func TestDecodeStrict(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"benchmark":"PR-kron","prefetchr":"droplet"}`)); err == nil {
		t.Error("Decode accepted an unknown field")
	} else if !strings.Contains(err.Error(), "prefetchr") {
		t.Errorf("unknown-field error does not name the field: %v", err)
	}

	canon, err := Request{Benchmark: "CC-road", Prefetcher: "pickle", EpochCycles: 5000}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(strings.NewReader(string(canon)))
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(canon) != string(canon2) {
		t.Errorf("canonical round trip not stable:\n first %s\nsecond %s", canon, canon2)
	}
}

// TestFieldErrors checks that every invalid field is reported, each
// through the shared valid-name error format.
func TestFieldErrors(t *testing.T) {
	r := Request{
		SchemaVersion: 99,
		Benchmark:     "PR-nope",
		Scale:         "tiny",
		Cores:         -1,
		Prefetcher:    "warp",
		Replacement:   "fifo",
		Sampling:      &Sampling{IntervalEpochs: 8, Warming: "cryogenic"},
	}
	_, err := r.Resolve()
	var fe FieldErrors
	if !errors.As(err, &fe) {
		t.Fatalf("Resolve error is %T, want FieldErrors: %v", err, err)
	}
	wantFields := []string{"version", "benchmark", "scale", "cores", "prefetcher", "replacement", "sampling.warming"}
	if len(fe) != len(wantFields) {
		t.Fatalf("got %d field errors %v, want %d", len(fe), fe, len(wantFields))
	}
	for i, f := range fe {
		if f.Field != wantFields[i] {
			t.Errorf("field error %d is %q, want %q", i, f.Field, wantFields[i])
		}
	}
	for _, f := range fe[4:6] {
		if !strings.Contains(f.Error, "valid:") {
			t.Errorf("%s error %q does not list the valid set", f.Field, f.Error)
		}
	}
}

// TestResolveTyped checks the typed view against the workload registry.
func TestResolveTyped(t *testing.T) {
	rv, err := Request{Benchmark: "sssp-livejournal", Scale: "full", Sampling: &Sampling{IntervalEpochs: 32}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rv.Benchmark != (workload.Benchmark{Algo: workload.SSSP, Dataset: "livejournal"}) {
		t.Errorf("benchmark = %+v", rv.Benchmark)
	}
	if rv.Scale != workload.Full || rv.Cores != DefaultCores {
		t.Errorf("scale/cores = %v/%d", rv.Scale, rv.Cores)
	}
	if !rv.Sampling.Enabled() {
		t.Error("sampling not enabled")
	}
}

// TestVariantGolden pins that the JSON field set stays closed: adding a
// field without bumping Version silently splits the cache keyspace.
func TestVariantGolden(t *testing.T) {
	b, err := json.Marshal(Request{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{"benchmark", "cores", "prefetcher", "replacement", "replacement_l1", "replacement_l2", "scale", "version"}
	if len(m) != len(want) {
		t.Errorf("zero request marshals %d always-present fields, want %d (%v)", len(m), len(want), m)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("always-present field %q missing", k)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to Decode. Whatever it accepts must
// survive a canonical round trip unchanged: decoding the canonical bytes
// gives the same request, its Hash is the SHA-256 of those bytes every
// time, and resolving it gives it back. The committed corpus lives in
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		canon, err := r.Canonical()
		if err != nil {
			t.Fatalf("decoded request %+v has no canonical form: %v", r, err)
		}
		back, err := Decode(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes %s do not decode: %v", canon, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("canonical round trip changed the request:\n got %+v\nwant %+v", back, r)
		}
		h1, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(canon)
		if h1 != h2 || h1 != hex.EncodeToString(sum[:]) {
			t.Fatalf("hash not stable: %s, %s, sha256(canonical) %x", h1, h2, sum)
		}
		rv, err := r.Resolve()
		if err != nil {
			t.Fatalf("decoded request %+v does not resolve: %v", r, err)
		}
		if !reflect.DeepEqual(rv.Request(), r) {
			t.Fatalf("Resolve().Request() = %+v, want %+v", rv.Request(), r)
		}
	})
}
