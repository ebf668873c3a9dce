// Command samplecheck gates the interval-sampling estimator. For each
// benchmark it generates one trace, runs the full simulation as the
// oracle, re-runs the same trace under SMARTS-style sampling, and
// compares the sampled extrapolation against the oracle cycle count.
// The process exits nonzero when any benchmark's cycle error exceeds
// -max-err or the geometric-mean wall-clock speedup falls below
// -min-speedup, so CI can enforce the documented accuracy bound (see
// DESIGN.md "Streaming traces & sampling").
//
// Usage:
//
//	samplecheck -benchmarks PR-kron,BFS-road,CC-kron -scale quick \
//	    -max-err 0.05 -json sampling_errors.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/sim"
	"droplet/internal/workload"
)

// row is one benchmark's oracle-vs-sampled comparison.
type row struct {
	Benchmark          string  `json:"benchmark"`
	OracleCycles       int64   `json:"oracle_cycles"`
	ExtrapolatedCycles int64   `json:"extrapolated_cycles"`
	CycleErrPct        float64 `json:"cycle_error_pct"`
	CPIRelStderrPct    float64 `json:"cpi_rel_stderr_pct"`
	SampledFraction    float64 `json:"sampled_instr_fraction"`
	Windows            int     `json:"windows"`
	OracleMillis       float64 `json:"oracle_ms"`
	SampledMillis      float64 `json:"sampled_ms"`
	Speedup            float64 `json:"speedup"`
}

// artifact is the JSON error table CI archives per commit.
type artifact struct {
	Scale          string  `json:"scale"`
	Prefetcher     string  `json:"prefetcher"`
	EpochCycles    int64   `json:"epoch_cycles"`
	IntervalEpochs int     `json:"interval_epochs"`
	DetailEpochs   int     `json:"detail_epochs"`
	WarmupEpochs   int     `json:"warmup_epochs"`
	Warming        string  `json:"warming"`
	MaxErr         float64 `json:"max_err"`
	MinSpeedup     float64 `json:"min_speedup"`
	Rows           []row   `json:"rows"`
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	Pass           bool    `json:"pass"`
}

func main() {
	var (
		benchmarks = flag.String("benchmarks", "PR-kron,BFS-road,CC-kron",
			"comma-separated ALGO-dataset pairs to check")
		scale = flag.String("scale", "quick", "workload scale: quick, full, huge")
		pf    = flag.String("prefetcher", "nopf",
			"prefetcher: nopf, ghb, vldp, stream, streamMPP1, droplet, monoDROPLETL1")
		epoch    = flag.Int64("epoch", 500, "telemetry epoch granularity in cycles")
		interval = flag.Int("sample-interval", 64, "sampling period length in epochs")
		detail   = flag.Int("sample-detail", 2, "measured epochs per period")
		warmup   = flag.Int("sample-warmup", 6, "detailed unmeasured epochs before each window")
		warming  = flag.String("warming", "none", "fast-forward warming: functional, none")
		maxErr   = flag.Float64("max-err", 0.05,
			"fail when |extrapolated-oracle|/oracle exceeds this on any benchmark")
		minSpeedup = flag.Float64("min-speedup", 0,
			"fail when the geometric-mean sampled speedup is below this (0 disables)")
		jsonOut = flag.String("json", "", "write the error table as JSON to this file")
		out     = flag.String("o", "", "write the text table to this file as well as stdout")
	)
	flag.Parse()
	if err := run(*benchmarks, *scale, *pf, *epoch, *interval, *detail, *warmup,
		*warming, *maxErr, *minSpeedup, *jsonOut, *out); err != nil {
		fmt.Fprintln(os.Stderr, "samplecheck:", err)
		os.Exit(1)
	}
}

func run(benchmarks, scale, pf string, epoch int64, interval, detail, warmup int,
	warming string, maxErr, minSpeedup float64, jsonOut, out string) error {
	sc, err := workload.ParseScale(scale)
	if err != nil {
		return err
	}
	kind, err := core.ParseKind(pf)
	if err != nil {
		return err
	}
	warm, err := sim.ParseWarming(warming)
	if err != nil {
		return err
	}
	sampling := sim.Sampling{
		IntervalEpochs: interval,
		DetailEpochs:   detail,
		WarmupEpochs:   warmup,
		Warming:        warm,
	}

	cfg := exp.Machine(sc)
	cfg.Prefetcher = kind

	art := artifact{
		Scale:          scale,
		Prefetcher:     pf,
		EpochCycles:    epoch,
		IntervalEpochs: interval,
		DetailEpochs:   detail,
		WarmupEpochs:   warmup,
		Warming:        warm.String(),
		MaxErr:         maxErr,
		MinSpeedup:     minSpeedup,
	}
	var failures []string
	logSpeedupSum := 0.0
	for _, name := range strings.Split(benchmarks, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := workload.ParseBenchmark(name)
		if err != nil {
			return err
		}
		r, err := check(b, sc, cfg, sampling, epoch)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		art.Rows = append(art.Rows, r)
		logSpeedupSum += math.Log(r.Speedup)
		if math.Abs(r.CycleErrPct) > maxErr*100 {
			failures = append(failures, fmt.Sprintf(
				"%s: cycle error %+.2f%% exceeds bound %.2f%%",
				name, r.CycleErrPct, maxErr*100))
		}
	}
	if len(art.Rows) == 0 {
		return fmt.Errorf("no benchmarks selected")
	}
	art.GeomeanSpeedup = math.Exp(logSpeedupSum / float64(len(art.Rows)))
	if minSpeedup > 0 && art.GeomeanSpeedup < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"geomean speedup %.2fx below bound %.2fx", art.GeomeanSpeedup, minSpeedup))
	}
	art.Pass = len(failures) == 0

	table := format(art)
	fmt.Print(table)
	if out != "" {
		if err := os.WriteFile(out, []byte(table), 0o644); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !art.Pass {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

// check runs one benchmark both ways on a single shared trace.
func check(b workload.Benchmark, sc workload.Scale, cfg sim.Config,
	sampling sim.Sampling, epoch int64) (row, error) {
	tr, err := workload.GenerateTrace(b, sc, cfg.Cores)
	if err != nil {
		return row{}, err
	}

	t0 := time.Now()
	oracle, err := sim.Run(tr, cfg)
	if err != nil {
		return row{}, err
	}
	oracleDur := time.Since(t0)

	t0 = time.Now()
	sampled, err := sim.Simulate(context.Background(), tr, cfg, sim.Options{
		Sampling:    sampling,
		EpochCycles: epoch,
	})
	if err != nil {
		return row{}, err
	}
	sampledDur := time.Since(t0)
	rep := sampled.Sampled
	if rep == nil {
		return row{}, fmt.Errorf("sampled run produced no SampleReport")
	}

	r := row{
		Benchmark:          b.String(),
		OracleCycles:       oracle.Cycles,
		ExtrapolatedCycles: rep.ExtrapolatedCycles,
		CycleErrPct: 100 * float64(rep.ExtrapolatedCycles-oracle.Cycles) /
			float64(oracle.Cycles),
		CPIRelStderrPct: 100 * rep.CPIRelStderr,
		SampledFraction: rep.SampledFraction,
		Windows:         rep.Windows,
		OracleMillis:    float64(oracleDur.Microseconds()) / 1e3,
		SampledMillis:   float64(sampledDur.Microseconds()) / 1e3,
		Speedup:         float64(oracleDur) / float64(sampledDur),
	}
	return r, nil
}

func format(art artifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sampling gate: scale=%s prefetcher=%s epoch=%d interval=%d detail=%d warmup=%d warming=%s\n",
		art.Scale, art.Prefetcher, art.EpochCycles, art.IntervalEpochs,
		art.DetailEpochs, art.WarmupEpochs, art.Warming)
	fmt.Fprintf(&sb, "%-18s %14s %14s %8s %9s %8s %10s %10s %8s\n",
		"benchmark", "oracle_cycles", "extrapolated", "err%", "stderr%",
		"frac", "oracle_ms", "sample_ms", "speedup")
	for _, r := range art.Rows {
		fmt.Fprintf(&sb, "%-18s %14d %14d %+7.2f%% %8.2f%% %8.4f %10.1f %10.1f %7.2fx\n",
			r.Benchmark, r.OracleCycles, r.ExtrapolatedCycles, r.CycleErrPct,
			r.CPIRelStderrPct, r.SampledFraction, r.OracleMillis,
			r.SampledMillis, r.Speedup)
	}
	fmt.Fprintf(&sb, "geomean speedup %.2fx; bound |err| <= %.1f%%",
		art.GeomeanSpeedup, art.MaxErr*100)
	if art.MinSpeedup > 0 {
		fmt.Fprintf(&sb, ", speedup >= %.1fx", art.MinSpeedup)
	}
	if art.Pass {
		sb.WriteString(": PASS\n")
	} else {
		sb.WriteString(": FAIL\n")
	}
	return sb.String()
}
