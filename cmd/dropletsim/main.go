// Command dropletsim runs one simulation request — a benchmark
// (algorithm × dataset) on one machine/prefetcher configuration — and
// prints its statistics, or — with -matrix — regenerates the paper's
// experiment tables over the benchmark matrix on the parallel scheduler.
//
// Usage:
//
//	dropletsim -algo PR -dataset orkut -prefetcher droplet -scale quick
//	dropletsim -algo PR -dataset kron -scale huge -stream -footprint fp.json
//	dropletsim -algo BFS -dataset road -sample-interval 20 -warming none
//	dropletsim -matrix fig3,fig4b -benchmarks PR-kron,BFS-road -jobs 4
//	dropletsim -matrix all -scale full -v
//
// The request flags (-algo/-dataset, -scale, -cores, -prefetcher,
// -replacement*, -epoch, -sample-*/-warming) build one simreq.Request,
// the same value POST /v1/simulate takes, and -json prints exactly the
// body the server returns for it. -stream replays the benchmark through
// the pull-based trace generator (peak memory bounded by the per-core
// window instead of the trace length). In -json mode all human-readable
// preamble goes to stderr, so stdout diffs clean across modes that
// produce identical results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"droplet"
	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// runFlags bundles the flags that are not part of the request.
type runFlags struct {
	graphEL                string
	asJSON, stream         bool
	footprint              string
	telemFormat, telemOut  string
	matrix, benchmarks     string
	jobs                   int
	verbose                bool
	outPath, telemDir      string
	cpuProfile, memProfile string
}

// errUsage reports a command line the flag set has already rejected
// and explained.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "dropletsim:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dropletsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The request flags write straight into the one request this run
	// resolves.
	var (
		rf            runFlags
		q             simreq.Request
		algo, dataset string
		sample        simreq.Sampling
	)
	fs.StringVar(&algo, "algo", "PR", "algorithm: BC, BFS, PR, SSSP, CC")
	fs.StringVar(&dataset, "dataset", "kron", "dataset: kron, urand, orkut, livejournal, road")
	fs.StringVar(&q.Prefetcher, "prefetcher", "droplet", "prefetcher: "+strings.Join(core.KindNames(), ", ")+" (comma-separated list restricts the -matrix pfx experiment)")
	fs.StringVar(&q.Scale, "scale", "quick", "workload scale: quick, full, or huge (materialized, huge needs ≈4 GiB; -stream bounds it)")
	fs.StringVar(&q.Replacement, "replacement", "lru", "LLC replacement policy: lru, random, srrip, brrip, drrip, ship")
	fs.StringVar(&q.ReplacementL1, "replacement-l1", "lru", "private L1 replacement policy (same names as -replacement)")
	fs.StringVar(&q.ReplacementL2, "replacement-l2", "lru", "private L2 replacement policy (same names as -replacement)")
	fs.IntVar(&q.Cores, "cores", simreq.DefaultCores, "number of simulated cores")
	fs.Int64Var(&q.EpochCycles, "epoch", 0, "telemetry/sampling epoch granularity in cycles (0 = default)")
	fs.IntVar(&sample.IntervalEpochs, "sample-interval", 0, "enable SMARTS sampling with this interval in epochs (0 = full run)")
	fs.IntVar(&sample.DetailEpochs, "sample-detail", 0, "measured epochs per sampling interval (0 = default 1)")
	fs.IntVar(&sample.WarmupEpochs, "sample-warmup", 0, "detailed warmup epochs per sampling interval (0 = default 1)")
	fs.StringVar(&sample.Warming, "warming", "functional", "fast-forward cache treatment: functional or none")
	fs.StringVar(&rf.graphEL, "graphfile", "", "run on a custom edge-list graph instead of a registered dataset")
	fs.BoolVar(&rf.asJSON, "json", false, "print the POST /v1/simulate result body (preamble goes to stderr)")
	fs.BoolVar(&rf.stream, "stream", false, "replay through the pull-based trace generator instead of materializing the trace")
	fs.StringVar(&rf.footprint, "footprint", "", "write a peak-memory JSON report to this file")
	fs.StringVar(&rf.telemFormat, "telemetry", "", "stream epoch telemetry in this format: jsonl or csv (single-run mode)")
	fs.StringVar(&rf.telemOut, "telemetry-out", "", "telemetry output file (default telemetry.<format>)")
	fs.StringVar(&rf.matrix, "matrix", "", "run experiment tables (comma-separated ids or 'all') over the benchmark matrix instead of a single simulation")
	fs.StringVar(&rf.benchmarks, "benchmarks", "", "restrict -matrix to comma-separated ALGO-dataset pairs (e.g. PR-kron,BFS-road)")
	fs.IntVar(&rf.jobs, "jobs", runtime.NumCPU(), "parallel simulation workers (also bounds live traces)")
	fs.BoolVar(&rf.verbose, "v", false, "print per-simulation progress and per-experiment wall time to stderr")
	fs.StringVar(&rf.outPath, "o", "", "write -matrix tables to this file instead of stdout")
	fs.StringVar(&rf.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&rf.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&rf.telemDir, "telemetry-dir", "", "stream per-simulation epoch JSONL files into this directory (-matrix mode)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if rf.cpuProfile != "" {
		f, err := os.Create(rf.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if rf.memProfile != "" {
		defer func() {
			f, err := os.Create(rf.memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "dropletsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "dropletsim:", err)
			}
		}()
	}

	q.Benchmark = algo + "-" + dataset
	if sample.IntervalEpochs != 0 {
		q.Sampling = &sample
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if rf.graphEL != "" && set["dataset"] {
		return fmt.Errorf("-dataset does not apply to a -graphfile run")
	}
	// A flag the chosen mode would ignore is an error, not a no-op.
	misplaced, mode := []string{"benchmarks", "jobs", "o", "telemetry-dir", "v"}, "single runs"
	if rf.matrix != "" {
		// The matrix sweeps its own benchmarks and prefetchers on
		// DefaultCores cores.
		misplaced, mode = []string{"algo", "dataset", "cores", "graphfile", "json", "stream", "footprint", "telemetry", "telemetry-out"}, "-matrix"
	}
	var bad []string
	for _, name := range misplaced {
		if set[name] {
			bad = append(bad, "-"+name)
		}
	}
	if bad != nil {
		return fmt.Errorf("%s do not apply to %s", strings.Join(bad, ", "), mode)
	}
	pfList := ""
	if rf.matrix != "" {
		// An explicitly set -prefetcher list only restricts the pfx
		// experiment.
		if set["prefetcher"] {
			pfList = q.Prefetcher
		}
		q.Prefetcher = ""
	}
	rv, err := q.Resolve()
	if err != nil {
		return err
	}
	if rf.matrix != "" {
		return runMatrix(rf, rv, pfList, stdout, stderr)
	}
	return simulate(rf, q, rv, stdout, stderr)
}

// runMatrix regenerates the requested experiment tables on a suite
// whose machine settings come from the resolved request. Table bytes
// are deterministic: results come out of the suite cache in table order
// no matter how the scheduler interleaved the simulations, so -jobs N
// output diffs clean against -jobs 1 (the CI smoke job relies on this),
// with or without sampling.
func runMatrix(rf runFlags, rv simreq.Resolved, pfList string, stdout, stderr io.Writer) error {
	s := exp.NewSuite(rv.Scale)
	s.Jobs = rf.jobs
	s.Sample = rv.Sampling
	s.EpochCycles = rv.EpochCycles
	s.Replacement = rv.Replacement
	s.ReplacementL1 = rv.ReplacementL1
	s.ReplacementL2 = rv.ReplacementL2
	if pfList != "" {
		for _, name := range strings.Split(pfList, ",") {
			k, err := core.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			s.Prefetchers = append(s.Prefetchers, k)
		}
	}
	if rf.benchmarks != "" {
		for _, name := range strings.Split(rf.benchmarks, ",") {
			b, err := workload.ParseBenchmark(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			s.Benchmarks = append(s.Benchmarks, b)
		}
	}
	exps := exp.Experiments
	if rf.matrix != "all" {
		exps = nil
		for _, id := range strings.Split(rf.matrix, ",") {
			e, err := exp.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	if rf.telemDir != "" {
		if err := os.MkdirAll(rf.telemDir, 0o755); err != nil {
			return err
		}
		s.TelemetryDir = rf.telemDir
	}
	if rf.verbose {
		// The suite serializes Progress calls, so writing straight to
		// stderr is safe under -jobs > 1.
		s.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}

	out := stdout
	if rf.outPath != "" {
		f, err := os.Create(rf.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	for _, e := range exps {
		start := time.Now()
		text, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, text)
		if rf.verbose {
			fmt.Fprintf(stderr, "[%s took %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// simulate runs the single request rv on its machine and prints the
// result: under -json the exact POST /v1/simulate body for q, otherwise
// a human-readable report.
func simulate(rf runFlags, q simreq.Request, rv simreq.Resolved, stdout, stderr io.Writer) error {
	if rf.asJSON && rf.graphEL != "" {
		return fmt.Errorf("-json prints the result body of a benchmark request, and a -graphfile run is not one")
	}
	// In -json mode stdout carries only the result body; everything
	// human-readable moves to stderr so result diffs across runs and
	// modes stay clean.
	info := stdout
	if rf.asJSON {
		info = stderr
	}
	var peak *peakTracker
	if rf.footprint != "" {
		peak = trackPeakHeap()
	}

	opts := sim.Options{Sampling: rv.Sampling, EpochCycles: rv.EpochCycles}
	var telemFile *os.File
	if rf.telemFormat != "" {
		var err error
		if opts.Observer, telemFile, err = openTelemetry(rf, rv); err != nil {
			return err
		}
		// Until the run completes, any return drops the partial epoch
		// file.
		defer func() {
			if telemFile != nil {
				telemFile.Close()
				os.Remove(telemFile.Name())
			}
		}()
	}
	tr, st, err := traceSource(rf, rv, info)
	if err != nil {
		return err
	}
	cfg := exp.MachineOf(rv)
	fmt.Fprintf(info, "simulating on %dKB/%dKB/%dKB hierarchy with %v...\n",
		cfg.L1.SizeBytes>>10, cfg.L2.SizeBytes>>10, cfg.LLC.SizeBytes>>10, cfg.Prefetcher)
	var r *sim.Result
	var events int64
	if st != nil {
		r, err = sim.SimulateStream(context.Background(), st, cfg, opts)
	} else {
		events = tr.Events()
		r, err = sim.Simulate(context.Background(), tr, cfg, opts)
	}
	if err != nil {
		return err
	}
	if f := telemFile; f != nil {
		if err := f.Close(); err != nil {
			return err
		}
		telemFile = nil
		fmt.Fprintf(info, "telemetry written to %s\n", f.Name())
	}

	if rf.footprint != "" {
		if err := writeFootprint(rf, rv, r, events, peak.stop()); err != nil {
			return err
		}
		fmt.Fprintf(info, "footprint written to %s\n", rf.footprint)
	}
	if rf.asJSON {
		body, err := simreq.EncodeResult(q, r.Summarize())
		if err != nil {
			return err
		}
		_, err = stdout.Write(body)
		return err
	}
	printResult(stdout, r)
	return nil
}

// openTelemetry creates the -telemetry output file and the epoch
// collector streaming into it.
func openTelemetry(rf runFlags, rv simreq.Resolved) (telemetry.Observer, *os.File, error) {
	if rf.telemFormat != "jsonl" && rf.telemFormat != "csv" {
		return nil, nil, fmt.Errorf("unknown telemetry format %q (want jsonl or csv)", rf.telemFormat)
	}
	path := rf.telemOut
	if path == "" {
		path = "telemetry." + rf.telemFormat
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var sink telemetry.Sink = telemetry.NewJSONLSink(f)
	if rf.telemFormat == "csv" {
		sink = telemetry.NewCSVSink(f)
	}
	name := rv.Benchmark.String()
	if rf.graphEL != "" {
		name = rv.Benchmark.Algo.String() + "-" + rf.graphEL
	}
	epoch := rv.EpochCycles
	if epoch == 0 {
		epoch = sim.DefaultEpochCycles
	}
	return telemetry.NewCollector(sink, telemetry.RunMeta{
		Benchmark:   name,
		Kernel:      rv.Benchmark.Algo.String(),
		EpochCycles: epoch,
	}), f, nil
}

// traceSource picks the run's trace once: generated for the request's
// benchmark, or recorded over the -graphfile graph; materialized, or
// under -stream pulled from a bounded generator. Exactly one of the
// returned trace and stream is non-nil.
func traceSource(rf runFlags, rv simreq.Resolved, info io.Writer) (*trace.Trace, *trace.Stream, error) {
	var (
		tr  *trace.Trace
		st  *trace.Stream
		err error
	)
	if rf.graphEL != "" {
		var g *graph.CSR
		if g, err = loadGraph(rf.graphEL, rv.Benchmark.Algo, info); err != nil {
			return nil, nil, err
		}
		opt := droplet.TraceOptions{Cores: rv.Cores, MaxEvents: rv.Scale.MaxEvents(), PRIters: 2}
		if rf.stream {
			st, err = droplet.StreamOf(rv.Benchmark.Algo, g, opt, droplet.StreamConfig{})
		} else {
			tr, err = droplet.TraceOf(rv.Benchmark.Algo, g, opt)
		}
		if err != nil {
			return nil, nil, err
		}
	} else if rf.stream {
		fmt.Fprintf(info, "streaming trace for %s at %s scale...\n", rv.Benchmark, rv.Scale)
		if st, err = workload.GenerateStream(rv.Benchmark, rv.Scale, rv.Cores, trace.StreamConfig{}); err != nil {
			return nil, nil, err
		}
	} else {
		fmt.Fprintf(info, "generating trace for %s at %s scale...\n", rv.Benchmark, rv.Scale)
		if tr, err = workload.GenerateTrace(rv.Benchmark, rv.Scale, rv.Cores); err != nil {
			return nil, nil, err
		}
	}
	if st != nil {
		fmt.Fprintf(info, "  window %d events/core, %d cores\n", st.WindowEvents(), st.NumCores())
	} else {
		fmt.Fprintf(info, "  %d events, %d instructions, %d cores\n", tr.Events(), tr.Instructions, tr.NumCores())
	}
	return tr, st, nil
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

func writeFootprint(rf runFlags, rv simreq.Resolved, r *sim.Result, events int64, peak uint64) error {
	rep := footprintReport{
		Benchmark:     rv.Benchmark.String(),
		Scale:         rv.Scale.String(),
		Stream:        rf.stream,
		Cores:         rv.Cores,
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

func printResult(w io.Writer, r *sim.Result) {
	fmt.Fprintf(w, "\ncycles        %d\n", r.Cycles)
	fmt.Fprintf(w, "instructions  %d\n", r.Instructions)
	fmt.Fprintf(w, "IPC           %.3f\n", r.IPC())
	fmt.Fprintf(w, "LLC MPKI      %.2f\n", r.LLCMPKI())
	fmt.Fprintf(w, "BPKI          %.2f\n", r.BPKI())
	fmt.Fprintf(w, "bandwidth     %.1f%%\n", r.BandwidthUtilization()*100)
	fmt.Fprintf(w, "L2 hit rate   %.1f%%\n", r.L2HitRate()*100)
	fmt.Fprintf(w, "MLP (DRAM)    %.2f\n", r.MLP())

	if s := r.Sampled; s != nil {
		fmt.Fprintf(w, "\nsampled (interval %d, detail %d, warmup %d, warming %v):\n",
			s.IntervalEpochs, s.DetailEpochs, s.WarmupEpochs, s.Warming)
		fmt.Fprintf(w, "  extrapolated cycles  %d\n", s.ExtrapolatedCycles)
		fmt.Fprintf(w, "  CPI                  %.3f (rel stderr %.2f%%)\n", s.CPI, s.CPIRelStderr*100)
		fmt.Fprintf(w, "  windows              %d (%.2f%% of instructions)\n", s.Windows, s.SampledFraction*100)
	}

	base, byLevel := r.CycleStack()
	fmt.Fprintf(w, "\ncycle stack:  base %.1f%%", base*100)
	for l := 0; l < memsys.NumLevels; l++ {
		fmt.Fprintf(w, "  %v %.1f%%", memsys.Level(l), byLevel[l]*100)
	}
	fmt.Fprintln(w)

	f := r.ServicedFractions()
	fmt.Fprintln(w, "\nserviced by (per data type):")
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		fmt.Fprintf(w, "  %-14v", mem.DataType(dt))
		for l := 0; l < memsys.NumLevels; l++ {
			fmt.Fprintf(w, "  %v %5.1f%%", memsys.Level(l), f[dt][l]*100)
		}
		fmt.Fprintln(w)
	}

	for _, dt := range []mem.DataType{mem.Structure, mem.Property} {
		if acc, ok := r.PrefetchAccuracy(dt); ok {
			fmt.Fprintf(w, "%-9v prefetch accuracy  %.1f%%\n", dt, acc*100)
		}
	}
	if m := r.Attachment.MPP; m != nil {
		s := m.Stats()
		fmt.Fprintf(w, "MPP: %d triggers, %d addresses, %d LLC copies, %d DRAM prefetches, %d dropped\n",
			s.Triggers, s.AddrsGenerated, s.CopiedFromLLC, s.IssuedToDRAM, s.DroppedVABFull+s.DroppedFault)
	}
	if p := r.Attachment.Pickle; p != nil {
		s := p.Stats()
		fmt.Fprintf(w, "Pickle: %d triggers, %d issued, %d dropped (window %d, degree %d)\n",
			s.Triggers, s.Issued, s.DroppedWindow+s.DroppedDegree, s.DroppedWindow, s.DroppedDegree)
	}
}
