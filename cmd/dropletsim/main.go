// Command dropletsim runs one benchmark (algorithm × dataset) on one
// machine/prefetcher configuration and prints the simulation statistics,
// or — with -matrix — regenerates experiment tables over the benchmark
// matrix on the parallel scheduler.
//
// Usage:
//
//	dropletsim -algo PR -dataset orkut -prefetcher droplet -scale quick
//	dropletsim -algo PR -dataset kron -scale huge -stream -footprint fp.json
//	dropletsim -algo BFS -dataset road -sample-interval 20 -warming none
//	dropletsim -matrix fig3,fig4b -benchmarks PR-kron,BFS-road -jobs 4
//
// -stream replays the benchmark through the pull-based trace generator
// (peak memory bounded by the per-core window instead of the trace
// length); -sample-interval N enables SMARTS interval sampling. In -json
// mode all human-readable preamble goes to stderr, so stdout diffs clean
// across modes that produce identical results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// runFlags bundles the single-run command line.
type runFlags struct {
	algo, dataset, pf, scale     string
	replacement                  string
	replacementL1, replacementL2 string
	cores, llcKB                 int
	graphEL                      string
	asJSON, stream               bool
	sampleInterval, sampleDetail int
	sampleWarmup                 int
	warming                      string
	footprint                    string
	telemFormat, telemOut        string
	epochCyc                     int64
}

func main() {
	var rf runFlags
	flag.StringVar(&rf.algo, "algo", "PR", "algorithm: BC, BFS, PR, SSSP, CC")
	flag.StringVar(&rf.dataset, "dataset", "kron", "dataset: kron, urand, orkut, livejournal, road")
	flag.StringVar(&rf.pf, "prefetcher", "droplet", "prefetcher: "+strings.Join(core.KindNames(), ", ")+" (comma-separated list restricts the -matrix pfx experiment)")
	flag.StringVar(&rf.scale, "scale", "quick", "workload scale: quick, full, or huge (huge requires -stream)")
	flag.StringVar(&rf.replacement, "replacement", "lru", "LLC replacement policy: lru, random, srrip, brrip, drrip, ship")
	flag.StringVar(&rf.replacementL1, "replacement-l1", "lru", "private L1 replacement policy (same names as -replacement)")
	flag.StringVar(&rf.replacementL2, "replacement-l2", "lru", "private L2 replacement policy (same names as -replacement)")
	flag.IntVar(&rf.cores, "cores", 4, "number of simulated cores")
	flag.IntVar(&rf.llcKB, "llc", 0, "override LLC size in KB (0 = scale default)")
	flag.StringVar(&rf.graphEL, "graphfile", "", "run on a custom edge-list graph instead of a registered dataset")
	flag.BoolVar(&rf.asJSON, "json", false, "emit the result summary as JSON (preamble goes to stderr)")
	flag.BoolVar(&rf.stream, "stream", false, "replay through the pull-based trace generator instead of materializing the trace")
	flag.IntVar(&rf.sampleInterval, "sample-interval", 0, "enable SMARTS sampling with this interval in epochs (0 = full run)")
	flag.IntVar(&rf.sampleDetail, "sample-detail", 0, "measured epochs per sampling interval (0 = default 1)")
	flag.IntVar(&rf.sampleWarmup, "sample-warmup", 0, "detailed warmup epochs per sampling interval (0 = default 1)")
	flag.StringVar(&rf.warming, "warming", "functional", "fast-forward cache treatment: functional or none")
	flag.StringVar(&rf.footprint, "footprint", "", "write a peak-memory JSON report to this file")
	flag.StringVar(&rf.telemFormat, "telemetry", "", "stream epoch telemetry in this format: jsonl or csv (single-run mode)")
	flag.StringVar(&rf.telemOut, "telemetry-out", "", "telemetry output file (default telemetry.<format>)")
	flag.Int64Var(&rf.epochCyc, "epoch", 0, "telemetry/sampling epoch granularity in cycles (0 = default)")
	var (
		matrix     = flag.String("matrix", "", "run experiment tables (comma-separated ids or 'all') over the benchmark matrix instead of a single simulation")
		benchmarks = flag.String("benchmarks", "", "restrict -matrix to comma-separated ALGO-dataset pairs (e.g. PR-kron,BFS-road)")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (also bounds live traces)")
		verbose    = flag.Bool("v", false, "print per-simulation progress to stderr")
		outPath    = flag.String("o", "", "write -matrix tables to this file instead of stdout")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telemDir   = flag.String("telemetry-dir", "", "stream per-simulation epoch JSONL files into this directory (-matrix mode)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dropletsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dropletsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dropletsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dropletsim:", err)
			}
		}()
	}

	if *matrix != "" {
		// -prefetcher only restricts the matrix's pfx experiment when the
		// user set it explicitly; the single-run default must not leak in.
		pfList := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "prefetcher" {
				pfList = rf.pf
			}
		})
		sample, err := parseSampling(rf)
		if err == nil {
			err = runMatrix(*matrix, *benchmarks, pfList, rf, *jobs, *verbose, *outPath, *telemDir, sample)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dropletsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(rf); err != nil {
		fmt.Fprintln(os.Stderr, "dropletsim:", err)
		os.Exit(1)
	}
}

// parseSampling resolves the sampling flags into a sim.Sampling (zero
// when -sample-interval is unset).
func parseSampling(rf runFlags) (sim.Sampling, error) {
	if rf.sampleInterval == 0 {
		return sim.Sampling{}, nil
	}
	w, err := sim.ParseWarming(rf.warming)
	if err != nil {
		return sim.Sampling{}, err
	}
	return sim.Sampling{
		IntervalEpochs: rf.sampleInterval,
		DetailEpochs:   rf.sampleDetail,
		WarmupEpochs:   rf.sampleWarmup,
		Warming:        w,
	}, nil
}

// runMatrix regenerates the requested experiment tables on a suite with
// the given parallelism. Table bytes are deterministic: results come out
// of the suite cache in table order no matter how the scheduler
// interleaved the simulations, so -jobs N output diffs clean against
// -jobs 1 (the CI smoke job relies on this), with or without sampling.
func runMatrix(ids, benchList, pfList string, rf runFlags, jobs int, verbose bool, outPath, telemDir string, sample sim.Sampling) error {
	sc, err := workload.ParseScale(rf.scale)
	if err != nil {
		return err
	}
	pol, err := cache.ParseReplacement(rf.replacement)
	if err != nil {
		return err
	}
	polL1, err := cache.ParseReplacement(rf.replacementL1)
	if err != nil {
		return err
	}
	polL2, err := cache.ParseReplacement(rf.replacementL2)
	if err != nil {
		return err
	}
	s := exp.NewSuite(sc)
	s.Jobs = jobs
	s.Sample = sample
	s.EpochCycles = rf.epochCyc
	s.Replacement = pol
	s.ReplacementL1 = polL1
	s.ReplacementL2 = polL2
	if pfList != "" {
		for _, name := range strings.Split(pfList, ",") {
			k, err := core.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			s.Prefetchers = append(s.Prefetchers, k)
		}
	}
	if telemDir != "" {
		if err := os.MkdirAll(telemDir, 0o755); err != nil {
			return err
		}
		s.TelemetryDir = telemDir
	}
	if benchList != "" {
		for _, name := range strings.Split(benchList, ",") {
			b, err := workload.ParseBenchmark(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	if verbose {
		// The suite serializes Progress calls, so writing straight to
		// stderr is safe under -jobs > 1.
		s.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var exps []exp.Experiment
	if ids == "all" {
		exps = exp.Experiments
	} else {
		for _, id := range strings.Split(ids, ",") {
			e, err := exp.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		text, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, text)
	}
	return nil
}

func run(rf runFlags) error {
	a, err := workload.ParseAlgorithm(rf.algo)
	if err != nil {
		return err
	}
	kind, err := core.ParseKind(rf.pf)
	if err != nil {
		return err
	}
	sc, err := workload.ParseScale(rf.scale)
	if err != nil {
		return err
	}
	sample, err := parseSampling(rf)
	if err != nil {
		return err
	}
	if rf.stream && rf.telemFormat != "" {
		return fmt.Errorf("-telemetry is not supported with -stream (use the materialized path)")
	}

	// In -json mode stdout carries only the JSON summary; everything
	// human-readable moves to stderr so result diffs across runs and
	// modes stay clean.
	info := io.Writer(os.Stdout)
	if rf.asJSON {
		info = os.Stderr
	}

	var peak *peakTracker
	if rf.footprint != "" {
		peak = trackPeakHeap()
	}

	cfg := exp.Machine(sc)
	cfg.Cores = rf.cores
	cfg.Prefetcher = kind
	pol, err := cache.ParseReplacement(rf.replacement)
	if err != nil {
		return err
	}
	cfg.LLC.Policy = pol
	if cfg.L1.Policy, err = cache.ParseReplacement(rf.replacementL1); err != nil {
		return err
	}
	if cfg.L2.Policy, err = cache.ParseReplacement(rf.replacementL2); err != nil {
		return err
	}
	if rf.llcKB > 0 {
		cfg.LLC.SizeBytes = rf.llcKB << 10
	}

	var r *sim.Result
	var events int64
	if rf.stream {
		r, err = runStreaming(rf, a, sc, cfg, sample, info)
	} else {
		r, events, err = runMaterialized(rf, a, sc, cfg, sample, info)
	}
	if err != nil {
		return err
	}

	if rf.footprint != "" {
		if err := writeFootprint(rf, sc, r, events, peak.stop()); err != nil {
			return err
		}
		fmt.Fprintf(info, "footprint written to %s\n", rf.footprint)
	}
	if rf.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r.Summarize())
	}
	printResult(r)
	return nil
}

// runMaterialized generates (or loads) the full trace and simulates it,
// optionally under sampling/telemetry. It returns the event count for
// the footprint report.
func runMaterialized(rf runFlags, a workload.Algorithm, sc workload.Scale, cfg sim.Config, sample sim.Sampling, info io.Writer) (*sim.Result, int64, error) {
	var tr *trace.Trace
	if rf.graphEL != "" {
		g, err := loadGraph(rf.graphEL, a, info)
		if err != nil {
			return nil, 0, err
		}
		tr, err = traceCustom(a, g, rf.cores, sc)
		if err != nil {
			return nil, 0, err
		}
	} else {
		b := workload.Benchmark{Algo: a, Dataset: rf.dataset}
		fmt.Fprintf(info, "generating trace for %s at %s scale...\n", b, sc)
		var err error
		tr, err = workload.GenerateTrace(b, sc, rf.cores)
		if err != nil {
			return nil, 0, err
		}
	}
	fmt.Fprintf(info, "  %d events, %d instructions, %d cores\n", tr.Events(), tr.Instructions, tr.NumCores())
	fmt.Fprintf(info, "simulating on %dKB/%dKB/%dKB hierarchy with %v...\n",
		cfg.L1.SizeBytes>>10, cfg.L2.SizeBytes>>10, cfg.LLC.SizeBytes>>10, cfg.Prefetcher)

	var r *sim.Result
	var err error
	if rf.telemFormat != "" {
		benchName := rf.dataset
		if rf.graphEL != "" {
			benchName = rf.graphEL
		}
		r, err = runWithTelemetry(tr, cfg, rf.telemFormat, rf.telemOut, rf.epochCyc, sample, telemetry.RunMeta{
			Benchmark:   fmt.Sprintf("%v-%s", a, benchName),
			Kernel:      a.String(),
			EpochCycles: rf.epochCyc,
		}, info)
	} else {
		r, err = sim.Simulate(context.Background(), tr, cfg, sim.Options{
			Sampling:    sample,
			EpochCycles: rf.epochCyc,
		})
	}
	if err != nil {
		return nil, 0, err
	}
	return r, tr.Events(), nil
}

// runStreaming replays the benchmark through the pull-based generator.
func runStreaming(rf runFlags, a workload.Algorithm, sc workload.Scale, cfg sim.Config, sample sim.Sampling, info io.Writer) (*sim.Result, error) {
	var st *trace.Stream
	if rf.graphEL != "" {
		g, err := loadGraph(rf.graphEL, a, info)
		if err != nil {
			return nil, err
		}
		st, err = streamCustom(a, g, rf.cores, sc)
		if err != nil {
			return nil, err
		}
	} else {
		b := workload.Benchmark{Algo: a, Dataset: rf.dataset}
		fmt.Fprintf(info, "streaming trace for %s at %s scale...\n", b, sc)
		var err error
		st, err = workload.GenerateStream(b, sc, rf.cores, trace.StreamConfig{})
		if err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(info, "  window %d events/core, %d cores\n", st.WindowEvents(), st.NumCores())
	fmt.Fprintf(info, "simulating on %dKB/%dKB/%dKB hierarchy with %v...\n",
		cfg.L1.SizeBytes>>10, cfg.L2.SizeBytes>>10, cfg.LLC.SizeBytes>>10, cfg.Prefetcher)
	return sim.SimulateStream(context.Background(), st, cfg, sim.Options{
		Sampling:    sample,
		EpochCycles: rf.epochCyc,
	})
}

// loadGraph reads a custom edge-list graph.
func loadGraph(path string, a workload.Algorithm, info io.Writer) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f, graph.BuildOptions{Weighted: a.Weighted(), Dedupe: true, DropSelfLoops: true})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "loaded %s: %v\n", path, graph.ComputeDegreeStats(g))
	return g, nil
}

// runWithTelemetry wraps the single-run simulation with an epoch
// collector streaming to the chosen sink format.
func runWithTelemetry(tr *trace.Trace, cfg sim.Config, format, outPath string, epochCyc int64, sample sim.Sampling, meta telemetry.RunMeta, info io.Writer) (*sim.Result, error) {
	if outPath == "" {
		outPath = "telemetry." + format
	}
	var mkSink func(io.Writer) telemetry.Sink
	switch format {
	case "jsonl":
		mkSink = func(w io.Writer) telemetry.Sink { return telemetry.NewJSONLSink(w) }
	case "csv":
		mkSink = func(w io.Writer) telemetry.Sink { return telemetry.NewCSVSink(w) }
	default:
		return nil, fmt.Errorf("unknown telemetry format %q (want jsonl or csv)", format)
	}
	if meta.EpochCycles == 0 {
		meta.EpochCycles = sim.DefaultEpochCycles
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	col := telemetry.NewCollector(mkSink(f), meta)
	r, simErr := sim.Simulate(context.Background(), tr, cfg, sim.Options{
		Observer:    col,
		EpochCycles: epochCyc,
		Sampling:    sample,
	})
	if closeErr := f.Close(); simErr == nil {
		simErr = closeErr
	}
	if simErr != nil {
		return nil, simErr
	}
	fmt.Fprintf(info, "telemetry written to %s\n", outPath)
	return r, nil
}

// traceCustom records the chosen kernel over a user-supplied graph.
func traceCustom(a workload.Algorithm, g *graph.CSR, cores int, sc workload.Scale) (*trace.Trace, error) {
	opt := trace.Options{Cores: cores, MaxEvents: sc.MaxEvents(), PRIters: 2}
	src := graph.LargestComponentSource(g)
	switch a {
	case workload.PR:
		tr, _ := trace.PageRank(g, g.Transpose(), opt)
		return tr, nil
	case workload.BFS:
		tr, _ := trace.BFS(g, src, opt)
		return tr, nil
	case workload.SSSP:
		tr, _ := trace.SSSP(g, src, 0, opt)
		return tr, nil
	case workload.CC:
		tr, _ := trace.CC(g, opt)
		return tr, nil
	case workload.BC:
		tr, _ := trace.BC(g, []uint32{src}, opt)
		return tr, nil
	}
	return nil, fmt.Errorf("unsupported algorithm %v", a)
}

// streamCustom is traceCustom's streaming twin.
func streamCustom(a workload.Algorithm, g *graph.CSR, cores int, sc workload.Scale) (*trace.Stream, error) {
	opt := trace.Options{Cores: cores, MaxEvents: sc.MaxEvents(), PRIters: 2}
	src := graph.LargestComponentSource(g)
	var cfg trace.StreamConfig
	switch a {
	case workload.PR:
		return trace.StreamPageRank(g, g.Transpose(), opt, cfg), nil
	case workload.BFS:
		return trace.StreamBFS(g, src, opt, cfg), nil
	case workload.SSSP:
		return trace.StreamSSSP(g, src, 0, opt, cfg), nil
	case workload.CC:
		return trace.StreamCC(g, opt, cfg), nil
	case workload.BC:
		return trace.StreamBC(g, []uint32{src}, opt, cfg), nil
	}
	return nil, fmt.Errorf("unsupported algorithm %v", a)
}

// ------------------------------------------------------------- footprint

// peakTracker samples runtime.MemStats.HeapInuse on a ticker and retains
// the maximum (plus a final read at stop).
type peakTracker struct {
	mu   sync.Mutex
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func trackPeakHeap() *peakTracker {
	t := &peakTracker{done: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.sample()
			case <-t.done:
				return
			}
		}
	}()
	return t
}

func (t *peakTracker) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	if ms.HeapInuse > t.peak {
		t.peak = ms.HeapInuse
	}
	t.mu.Unlock()
}

// stop halts the sampler and returns the peak HeapInuse in bytes.
func (t *peakTracker) stop() uint64 {
	close(t.done)
	t.wg.Wait()
	t.sample()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// footprintReport is the -footprint JSON schema (the CI footprint job
// uploads it as an artifact and asserts PeakHeapInuse against its
// ceiling).
type footprintReport struct {
	Benchmark     string `json:"benchmark"`
	Scale         string `json:"scale"`
	Stream        bool   `json:"stream"`
	Cores         int    `json:"cores"`
	Events        int64  `json:"events,omitempty"` // materialized mode only
	Instructions  int64  `json:"instructions"`
	Cycles        int64  `json:"cycles"`
	PeakHeapInuse uint64 `json:"peak_heap_inuse"`
}

func writeFootprint(rf runFlags, sc workload.Scale, r *sim.Result, events int64, peak uint64) error {
	rep := footprintReport{
		Benchmark:     fmt.Sprintf("%s-%s", rf.algo, rf.dataset),
		Scale:         sc.String(),
		Stream:        rf.stream,
		Cores:         rf.cores,
		Events:        events,
		Instructions:  r.Instructions,
		Cycles:        r.Cycles,
		PeakHeapInuse: peak,
	}
	f, err := os.Create(rf.footprint)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(r *sim.Result) {
	fmt.Printf("\ncycles        %d\n", r.Cycles)
	fmt.Printf("instructions  %d\n", r.Instructions)
	fmt.Printf("IPC           %.3f\n", r.IPC())
	fmt.Printf("LLC MPKI      %.2f\n", r.LLCMPKI())
	fmt.Printf("BPKI          %.2f\n", r.BPKI())
	fmt.Printf("bandwidth     %.1f%%\n", r.BandwidthUtilization()*100)
	fmt.Printf("L2 hit rate   %.1f%%\n", r.L2HitRate()*100)
	fmt.Printf("MLP (DRAM)    %.2f\n", r.MLP())

	if s := r.Sampled; s != nil {
		fmt.Printf("\nsampled (interval %d, detail %d, warmup %d, warming %v):\n",
			s.IntervalEpochs, s.DetailEpochs, s.WarmupEpochs, s.Warming)
		fmt.Printf("  extrapolated cycles  %d\n", s.ExtrapolatedCycles)
		fmt.Printf("  CPI                  %.3f (rel stderr %.2f%%)\n", s.CPI, s.CPIRelStderr*100)
		fmt.Printf("  windows              %d (%.2f%% of instructions)\n", s.Windows, s.SampledFraction*100)
	}

	base, byLevel := r.CycleStack()
	fmt.Printf("\ncycle stack:  base %.1f%%", base*100)
	for l := 0; l < memsys.NumLevels; l++ {
		fmt.Printf("  %v %.1f%%", memsys.Level(l), byLevel[l]*100)
	}
	fmt.Println()

	f := r.ServicedFractions()
	fmt.Println("\nserviced by (per data type):")
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		fmt.Printf("  %-14v", mem.DataType(dt))
		for l := 0; l < memsys.NumLevels; l++ {
			fmt.Printf("  %v %5.1f%%", memsys.Level(l), f[dt][l]*100)
		}
		fmt.Println()
	}

	for _, dt := range []mem.DataType{mem.Structure, mem.Property} {
		if acc, ok := r.PrefetchAccuracy(dt); ok {
			fmt.Printf("%-9v prefetch accuracy  %.1f%%\n", dt, acc*100)
		}
	}
	if m := r.Attachment.MPP; m != nil {
		s := m.Stats()
		fmt.Printf("MPP: %d triggers, %d addresses, %d LLC copies, %d DRAM prefetches, %d dropped\n",
			s.Triggers, s.AddrsGenerated, s.CopiedFromLLC, s.IssuedToDRAM, s.DroppedVABFull+s.DroppedFault)
	}
	if p := r.Attachment.Pickle; p != nil {
		s := p.Stats()
		fmt.Printf("Pickle: %d triggers, %d issued, %d dropped (window %d, degree %d)\n",
			s.Triggers, s.Issued, s.DroppedWindow+s.DroppedDegree, s.DroppedWindow, s.DroppedDegree)
	}
}
