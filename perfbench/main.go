// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads, each loading a different layer of the simulator,
// checks that the program's outputs are correct, and prints its metrics
// with units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the benchmark instead records spans around the
// calls it makes into each layer and reports per-layer metrics plus a
// `layer | ops | self_s | share` table. README.md in this directory
// defines every workload and metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-quick --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The order of e2eMetrics and
// layerMetrics is the print order; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// e2eMetrics are measured with tracing off. peak_rss_mib and error_rate
// are per-layer metrics: peak RSS on serve-mix varies by a quarter
// between runs with the garbage collector's timing, and the error rate
// is 0 on a correct run (the result line's failed/attempted carry it).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_s", "s"},
}

var layerMetrics = []metricDef{
	{"graph.gen_s", "s"},
	{"graph.transpose_s", "s"},
	{"graph.edges", "count"},
	{"trace.gen_s", "s"},
	{"trace.stream_drain_s", "s"},
	{"trace.events", "count"},
	{"trace.instructions", "count"},
	{"sim.run_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.sampled_run_s", "s"},
	{"sim.sampled_frac", "ratio"},
	{"cpu.self_s", "s"},
	{"cpu.share", "ratio"},
	{"cpu.instructions", "count"},
	{"cpu.sim_cycles", "count"},
	{"memsys.self_s", "s"},
	{"memsys.share", "ratio"},
	{"memsys.accesses", "count"},
	{"memsys.ns_per_access", "ns"},
	{"memsys.merged_in_flight", "count"},
	{"cache.l1.accesses", "count"},
	{"cache.l1.misses", "count"},
	{"cache.l2.accesses", "count"},
	{"cache.l2.misses", "count"},
	{"cache.llc.accesses", "count"},
	{"cache.llc.misses", "count"},
	{"cache.llc.hit_ratio", "ratio"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.mrb_full_stalls", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.useful_ratio", "ratio"},
	{"prefetch.filtered_on_chip", "count"},
	{"prefetch.replay_delta_s", "s"},
	{"telemetry.overhead_s", "s"},
	{"telemetry.stream_bytes", "bytes"},
	{"simreq.decode_us", "us"},
	{"simreq.hash_us", "us"},
	{"exp.sim_result_s", "s"},
	{"exp.simulations", "count"},
	{"exp.dedup_ratio", "ratio"},
	{"serve.hit_p50_us", "us"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.handler_s", "s"},
	{"serve.transport_s", "s"},
	{"serve.simulations_overcount", "count"},
	{"host.alloc_mib", "MiB"},
	{"host.gc_cycles", "count"},
	{"peak_rss_mib", "MiB"},
	{"error_rate", "ratio"},
	{"bench.trace_overhead_s", "s"},
	{"bench.layer_sum_ratio", "ratio"},
	{"bench.replay_mismatches", "count"},
}

// heldOutSeed is the seed no tuning used. A later claim measured on the
// tuning seeds must also hold on it (see README.md).
const heldOutSeed = 9001

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spanDir  string
}

// report is what a workload hands back for printing. Metrics not set
// by a workload print as 0: the layer is not on that workload's path.
type report struct {
	attempted int
	failed    int
	// heldFailed counts failed held checks (see held).
	heldFailed int
	metrics    map[string]float64
	// notes are human-readable lines printed before the JSON result.
	notes []string
	// table is the traced run's per-layer self-time table.
	table []layerRow
}

// layerRow is one line of the `layer | ops | self_s | share` table.
type layerRow struct {
	layer string
	ops   float64
	self  float64
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check; a failure counts in the error rate and
// makes the command exit non-zero.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.notef("CHECK FAILED: "+format, args...)
	}
}

// held records a check the program is known to fail. A failure is
// printed on every run but counts in neither the error rate nor the exit
// code, so the workload stays runnable until the defect is fixed.
// README.md lists each held check and the fix that turns it into a
// counted check.
func (r *report) held(ok bool, format string, args ...any) {
	if !ok {
		r.heldFailed++
		r.notef("HELD CHECK FAILED (known program defect, not counted): "+format, args...)
	}
}

var workloads = map[string]func(cfg config, r *report) error{
	"sim-quick":    runSimQuick,
	"sampled-full": runSampledFull,
	"serve-mix":    runServeMix,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim-quick, sampled-full or serve-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every graph seed and request order derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.traced = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sim-quick|sampled-full|serve-mix, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}

	r := newReport()
	start := time.Now()
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", cfg.workload)
		os.Exit(1)
	}
	r.set("error_rate", float64(r.failed)/float64(r.attempted))

	fmt.Printf("perfbench %s seed=%d (held-out seed %d) seconds=%g trace=%d nproc=%d %s wall=%.1fs\n",
		cfg.workload, cfg.seed, heldOutSeed, cfg.seconds, traceFlag, runtime.NumCPU(), runtime.Version(),
		time.Since(start).Seconds())
	for _, n := range r.notes {
		fmt.Println(n)
	}
	defs := e2eMetrics
	if cfg.traced {
		defs = layerMetrics
		printTable(r.table)
	}
	fmt.Printf("error_rate = %d failed / %d attempted = %.4f; held checks failed: %d; peak_rss_mib = %.1f\n",
		r.failed, r.attempted, r.metrics["error_rate"], r.heldFailed, r.metrics["peak_rss_mib"])
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-28s %16.6g %s\n", d.name, v, d.unit)
		out[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		os.Exit(1)
	}
}

// printTable prints the traced run's per-layer self times; share is each
// layer's part of the summed self time.
func printTable(rows []layerRow) {
	if len(rows) == 0 {
		return
	}
	var total float64
	for _, row := range rows {
		total += row.self
	}
	sorted := append([]layerRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	fmt.Printf("%-12s | %12s | %10s | %6s\n", "layer", "ops", "self_s", "share")
	fmt.Println(strings.Repeat("-", 50))
	for _, row := range sorted {
		share := 0.0
		if total > 0 {
			share = row.self / total
		}
		fmt.Printf("%-12s | %12.0f | %10.4f | %5.1f%%\n", row.layer, row.ops, row.self, 100*share)
	}
	fmt.Printf("%-12s | %12s | %10.4f | %5.1f%%\n", "total", "", total, 100.0)
}
