package exp

import (
	"strings"
	"testing"

	"droplet/internal/core"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/workload"
)

// testSuite restricts the matrix to keep test runtime low: one skewed
// (kron) and one mesh (road) dataset across three algorithms.
func testSuite() *Suite {
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.BFS, Dataset: "road"},
		{Algo: workload.CC, Dataset: "kron"},
	}
	return s
}

func TestMachineConfigsValid(t *testing.T) {
	for _, sc := range []workload.Scale{workload.Quick, workload.Full} {
		cfg := Machine(sc)
		if cfg.LLC.SizeBytes <= cfg.L2.SizeBytes || cfg.L2.SizeBytes <= cfg.L1.SizeBytes {
			t.Errorf("%v: hierarchy sizes not increasing: %d/%d/%d",
				sc, cfg.L1.SizeBytes, cfg.L2.SizeBytes, cfg.LLC.SizeBytes)
		}
	}
}

func TestSuiteCachesResults(t *testing.T) {
	s := testSuite()
	b := s.Benchmarks[0]
	r1, err := s.Result(b, core.NoPrefetch, Variant{})
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	r2, err := s.Result(b, core.NoPrefetch, Variant{})
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if r1 != r2 {
		t.Error("identical queries returned different result objects")
	}
}

func TestFig1(t *testing.T) {
	s := NewSuite(workload.Quick)
	f, err := RunFig1(s)
	if err != nil {
		t.Fatalf("RunFig1: %v", err)
	}
	sum := f.Base
	for _, v := range f.ByLevel {
		sum += v
	}
	if sum < 0.95 || sum > 1.05 {
		t.Errorf("cycle stack sums to %v", sum)
	}
	// The paper's headline: the workload is DRAM-bound.
	if f.ByLevel[memsys.LevelDRAM] < 0.2 {
		t.Errorf("DRAM stall = %.2f, want memory-bound", f.ByLevel[memsys.LevelDRAM])
	}
	if !strings.Contains(f.Format(), "DRAM") {
		t.Error("Format missing DRAM row")
	}
}

func TestFig3SmallWindowEffect(t *testing.T) {
	s := testSuite()
	f, err := RunFig3(s)
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	// Observation #1: a 4x window buys very little.
	if f.MeanSpeedup > 1.35 {
		t.Errorf("4x ROB mean speedup = %.3f, expected small", f.MeanSpeedup)
	}
	if f.MeanSpeedup < 0.9 {
		t.Errorf("4x ROB slowed things down: %.3f", f.MeanSpeedup)
	}
	if len(f.Rows) != len(s.Benchmarks) {
		t.Errorf("rows = %d", len(f.Rows))
	}
}

func TestFig4aShape(t *testing.T) {
	s := testSuite()
	f, err := RunFig4a(s)
	if err != nil {
		t.Fatalf("RunFig4a: %v", err)
	}
	if len(f.Points) != len(LLCMultipliers) {
		t.Fatalf("points = %d", len(f.Points))
	}
	// MPKI must fall monotonically with LLC capacity.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].MeanMPKI > f.Points[i-1].MeanMPKI+0.01 {
			t.Errorf("MPKI rose with bigger LLC: %v", f.Points)
		}
	}
	// Fig 4c: property off-chip fraction falls more than structure's.
	first, last := f.Points[0], f.Points[len(f.Points)-1]
	propGain := first.OffChipByTy[mem.Property] - last.OffChipByTy[mem.Property]
	structGain := first.OffChipByTy[mem.Structure] - last.OffChipByTy[mem.Structure]
	if propGain < structGain {
		t.Errorf("property gain %.3f < structure gain %.3f", propGain, structGain)
	}
}

func TestFig4bL2Insensitivity(t *testing.T) {
	s := testSuite()
	f, err := RunFig4b(s)
	if err != nil {
		t.Fatalf("RunFig4b: %v", err)
	}
	if len(f.Points) != 4 {
		t.Fatalf("points = %d", len(f.Points))
	}
	// Observation #4: every L2 variant lands within a few percent.
	for _, p := range f.Points {
		if p.GeoSpeedup < 0.85 || p.GeoSpeedup > 1.15 {
			t.Errorf("L2 variant %q speedup %.3f — paper says insensitive", p.Name, p.GeoSpeedup)
		}
	}
}

func TestFig5And6Shape(t *testing.T) {
	s := testSuite()
	f5, err := RunFig5(s)
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	// Our traces model only the kernel's data accesses (no stack/scalar
	// traffic), so the in-chain fraction runs higher than the paper's
	// 43.2% — what matters is that chains dominate and are short.
	if f5.MeanInChainFrac < 0.15 {
		t.Errorf("in-chain fraction = %.2f", f5.MeanInChainFrac)
	}
	if f5.MeanChainLen < 1.5 || f5.MeanChainLen > 6 {
		t.Errorf("chain length = %.2f, want short chains", f5.MeanChainLen)
	}

	f6, err := RunFig6(s)
	if err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	// Observation #3's asymmetries.
	if f6.ConsumerFrac[mem.Property] <= f6.ProducerFrac[mem.Property] {
		t.Errorf("property: consumer %.2f <= producer %.2f",
			f6.ConsumerFrac[mem.Property], f6.ProducerFrac[mem.Property])
	}
	if f6.ProducerFrac[mem.Structure] <= f6.ConsumerFrac[mem.Structure] {
		t.Errorf("structure: producer %.2f <= consumer %.2f",
			f6.ProducerFrac[mem.Structure], f6.ConsumerFrac[mem.Structure])
	}
}

func TestFig7Shape(t *testing.T) {
	s := testSuite()
	f, err := RunFig7(s)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	// Observation #6: structure's L2 share is negligible; intermediate is
	// mostly on-chip.
	if f.Mean[mem.Structure][memsys.LevelL2] > 0.15 {
		t.Errorf("structure L2 share = %.2f", f.Mean[mem.Structure][memsys.LevelL2])
	}
	onChip := 1 - f.Mean[mem.Intermediate][memsys.LevelDRAM]
	if onChip < 0.7 {
		t.Errorf("intermediate on-chip share = %.2f", onChip)
	}
}

func TestFig11Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("full prefetcher matrix in -short mode")
	}
	s := testSuite()
	f, err := RunFig11(s)
	if err != nil {
		t.Fatalf("RunFig11: %v", err)
	}
	pr := f.Geomean[workload.PR.String()]
	if pr == nil {
		t.Fatal("no PR geomean")
	}
	// The paper's headline ordering on PR-like workloads.
	if pr[core.DROPLET.String()] <= pr[core.Stream.String()] {
		t.Errorf("droplet %.3f not above stream %.3f", pr[core.DROPLET.String()], pr[core.Stream.String()])
	}
	if pr[core.DROPLET.String()] <= pr[core.GHB.String()] {
		t.Errorf("droplet %.3f not above ghb %.3f", pr[core.DROPLET.String()], pr[core.GHB.String()])
	}
	if pr[core.DROPLET.String()] <= 1.0 {
		t.Errorf("droplet speedup %.3f <= 1", pr[core.DROPLET.String()])
	}
	out := f.Format()
	if !strings.Contains(out, "droplet") || !strings.Contains(out, "Fig 11b") {
		t.Error("Format incomplete")
	}
}

func TestFig12Through15(t *testing.T) {
	if testing.Short() {
		t.Skip("zoom-in figure matrix in -short mode")
	}
	s := testSuite()

	f12, err := RunFig12(s)
	if err != nil {
		t.Fatalf("RunFig12: %v", err)
	}
	pr := f12.HitRate[workload.PR.String()]
	if pr[core.DROPLET.String()] <= pr[core.NoPrefetch.String()] {
		t.Errorf("droplet L2 hit %.2f not above baseline %.2f",
			pr[core.DROPLET.String()], pr[core.NoPrefetch.String()])
	}

	f13, err := RunFig13(s)
	if err != nil {
		t.Fatalf("RunFig13: %v", err)
	}
	base := f13.MPKI[workload.PR.String()][core.NoPrefetch.String()]
	drop := f13.MPKI[workload.PR.String()][core.DROPLET.String()]
	if drop[mem.Structure] >= base[mem.Structure] {
		t.Error("droplet did not cut structure demand MPKI")
	}
	if drop[mem.Property] >= base[mem.Property] {
		t.Error("droplet did not cut property demand MPKI")
	}

	f14, err := RunFig14(s)
	if err != nil {
		t.Fatalf("RunFig14: %v", err)
	}
	acc := f14.Accuracy[workload.PR.String()][core.DROPLET.String()]
	if acc[0] < 0.5 {
		t.Errorf("droplet structure accuracy %.2f low for PR", acc[0])
	}

	f15, err := RunFig15(s)
	if err != nil {
		t.Fatalf("RunFig15: %v", err)
	}
	if extra := f15.Extra[workload.PR.String()]; extra > 0.6 {
		t.Errorf("droplet bandwidth overhead %.1f%% too high", extra*100)
	}
	for _, f := range []interface{ Format() string }{f12, f13, f14, f15} {
		if len(f.Format()) == 0 {
			t.Error("empty Format output")
		}
	}
}

func TestTables(t *testing.T) {
	if out := TableI(workload.Quick); !strings.Contains(out, "L3 (LLC)") {
		t.Error("Table I incomplete")
	}
	if out := TableII(); !strings.Contains(out, "PageRank") && !strings.Contains(out, "Rank each vertex") {
		t.Error("Table II incomplete")
	}
	out, err := TableIII(workload.Quick)
	if err != nil {
		t.Fatalf("TableIII: %v", err)
	}
	for _, d := range workload.Datasets {
		if !strings.Contains(out, d.Name) {
			t.Errorf("Table III missing %s", d.Name)
		}
	}
	if out := TableIV(); !strings.Contains(out, "serialization") {
		t.Error("Table IV incomplete")
	}
	if out := TableV(); !strings.Contains(out, "VAB") {
		t.Error("Table V incomplete")
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) != 25 {
		t.Errorf("experiments = %d, want 25", len(Experiments))
	}
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, err := ExperimentByID("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("bogus experiment id resolved")
	} else if want := `exp: unknown experiment "nope" (valid: table1, table2,`; !strings.HasPrefix(err.Error(), want) ||
		!strings.HasSuffix(err.Error(), ", overhead)") {
		t.Errorf("unknown-id error %q does not list the valid ids", err)
	}
	// The cheap text-only experiments must run end-to-end.
	s := NewSuite(workload.Quick)
	for _, id := range []string{"table1", "table2", "table4", "table5", "overhead"} {
		e, _ := ExperimentByID(id)
		out, err := e.Run(s)
		if err != nil || out == "" {
			t.Errorf("experiment %s: %q, %v", id, out, err)
		}
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix in -short mode")
	}
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{{Algo: workload.PR, Dataset: "kron"}}
	f, err := RunAblation(s)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(f.Rows) != 1 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	r := f.Rows[0]
	// Table IV's "when to prefetch": prefetch-triggered beats
	// demand-triggered property prefetching.
	if r.Droplet <= r.DemandTriggered {
		t.Errorf("droplet %.3f not above demand-triggered %.3f", r.Droplet, r.DemandTriggered)
	}
	if !strings.Contains(f.Format(), "demand-trig") {
		t.Error("Format incomplete")
	}
}

func TestReuseDistShape(t *testing.T) {
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{{Algo: workload.PR, Dataset: "kron"}}
	f, err := RunReuseDist(s)
	if err != nil {
		t.Fatalf("RunReuseDist: %v", err)
	}
	r := f.Rows[0]
	// Observation #6: structure escapes the LLC far more than property.
	if r.BeyondLLC[mem.Structure] <= r.BeyondLLC[mem.Property] {
		t.Errorf("structure beyond-LLC %.2f not above property %.2f",
			r.BeyondLLC[mem.Structure], r.BeyondLLC[mem.Property])
	}
	if !strings.Contains(f.Format(), "LLC") {
		t.Error("Format incomplete")
	}
}

func TestAdaptiveTracksWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive matrix in -short mode")
	}
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{
		{Algo: workload.PR, Dataset: "kron"},
		{Algo: workload.PR, Dataset: "road"},
	}
	f, err := RunAdaptive(s)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	for _, r := range f.Rows {
		best := r.Droplet
		if r.StreamMPP1 > best {
			best = r.StreamMPP1
		}
		// The adaptive design should stay within 15% of the better fixed
		// design on every workload (it pays probing epochs).
		if r.Adaptive < 0.85*best {
			t.Errorf("%s: adaptive %.3f far below best fixed %.3f", r.Bench, r.Adaptive, best)
		}
	}
}

func TestMultiChannelKeepsAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("multichannel matrix in -short mode")
	}
	s := NewSuite(workload.Quick)
	s.Benchmarks = []workload.Benchmark{{Algo: workload.PR, Dataset: "kron"}}
	f, err := RunMultiChannel(s)
	if err != nil {
		t.Fatalf("RunMultiChannel: %v", err)
	}
	r := f.Rows[0]
	if r.TwoChannels <= 1.0 {
		t.Errorf("droplet speedup at 2 channels = %.3f, want > 1", r.TwoChannels)
	}
	if r.BaselineGain < 1.0 {
		t.Errorf("second channel slowed the baseline: %.3f", r.BaselineGain)
	}
}
