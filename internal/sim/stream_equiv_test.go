package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"droplet/internal/trace"
	"droplet/internal/workload"
)

// quickEquivCfg is the scaled quick-matrix machine the CI smoke uses
// (exp.Machine(Quick), restated here to avoid an import cycle).
func quickEquivCfg() Config {
	cfg := DefaultConfig()
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 32 << 10
	return cfg
}

// TestSimulateStreamMatchesRun drives one benchmark per kernel through
// the materialized and the streaming path and requires bit-identical
// summaries: the pull-based generator must be a pure memory
// optimization, invisible to every simulated statistic.
func TestSimulateStreamMatchesRun(t *testing.T) {
	cfg := quickEquivCfg()
	for _, name := range []string{"PR-kron", "BFS-road", "CC-kron", "SSSP-road", "BC-orkut"} {
		t.Run(name, func(t *testing.T) {
			b, err := workload.ParseBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := workload.GenerateTrace(b, workload.Quick, cfg.Cores)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}

			st, err := workload.GenerateStream(b, workload.Quick, cfg.Cores, trace.StreamConfig{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulateStream(context.Background(), st, cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}

			wantJSON, _ := json.Marshal(want.Summarize())
			gotJSON, _ := json.Marshal(got.Summarize())
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("streaming summary diverges from materialized:\nmaterialized: %s\nstreaming:    %s",
					wantJSON, gotJSON)
			}
		})
	}
}

// gateSampling is the recipe the CI sampling gate runs (see
// cmd/samplecheck and DESIGN.md "Streaming traces & sampling").
func gateSampling() (Sampling, int64) {
	return Sampling{IntervalEpochs: 64, DetailEpochs: 2, WarmupEpochs: 6, Warming: WarmNone}, 500
}

// TestSamplingDeterminism runs the same sampled simulation twice and
// requires identical SampleReports: the sampling phase is a pure
// function of core clocks, so nothing may leak in from the scheduler or
// the host.
func TestSamplingDeterminism(t *testing.T) {
	b, err := workload.ParseBenchmark("PR-kron")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickEquivCfg()
	tr, err := workload.GenerateTrace(b, workload.Quick, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	sampling, epoch := gateSampling()
	opts := Options{Sampling: sampling, EpochCycles: epoch}
	first, err := Simulate(context.Background(), tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Simulate(context.Background(), tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sampled == nil || second.Sampled == nil {
		t.Fatal("sampled run missing SampleReport")
	}
	if !reflect.DeepEqual(first.Sampled, second.Sampled) {
		t.Errorf("sampled reports diverge across identical runs:\nfirst:  %+v\nsecond: %+v",
			first.Sampled, second.Sampled)
	}
	if first.Cycles != second.Cycles || first.Instructions != second.Instructions {
		t.Errorf("raw sampled results diverge: cycles %d vs %d, instructions %d vs %d",
			first.Cycles, second.Cycles, first.Instructions, second.Instructions)
	}
}

// TestSampledObserverInvariance pins the epoch-capped sampled schedule:
// with a Progress callback installed, quanta also end at every epoch
// boundary, and under WarmNone fast-forward quanta skip straight to the
// next detailed phase only without one. Both schedules must produce
// bit-identical results under either warming mode — the cap never
// reorders shared-hierarchy accesses, and the skip only removes
// elections of cores whose fast-forward steps touch no shared state.
func TestSampledObserverInvariance(t *testing.T) {
	b, err := workload.ParseBenchmark("BFS-road")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickEquivCfg()
	tr, err := workload.GenerateTrace(b, workload.Quick, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	for _, warming := range []Warming{WarmNone, WarmFunctional} {
		t.Run(warming.String(), func(t *testing.T) {
			sampling, epoch := gateSampling()
			sampling.Warming = warming
			plain, err := Simulate(context.Background(), tr, cfg, Options{Sampling: sampling, EpochCycles: epoch})
			if err != nil {
				t.Fatal(err)
			}
			observed, err := Simulate(context.Background(), tr, cfg, Options{
				Sampling:    sampling,
				EpochCycles: epoch,
				Progress:    func(int64) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Sampled, observed.Sampled) {
				t.Errorf("progress callback perturbed the sampled report:\nplain:    %+v\nobserved: %+v",
					plain.Sampled, observed.Sampled)
			}
			if plain.Cycles != observed.Cycles {
				t.Errorf("progress callback perturbed raw cycles: %d vs %d", plain.Cycles, observed.Cycles)
			}
		})
	}
}

// TestSampledExtrapolationTracksOracle is a coarse accuracy backstop at
// the unit-test level: the extrapolated cycle count must land within
// 10% of the full-run oracle for one gate benchmark. The tight 5% bound
// over the full gate matrix lives in cmd/samplecheck, which CI runs.
func TestSampledExtrapolationTracksOracle(t *testing.T) {
	b, err := workload.ParseBenchmark("CC-kron")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickEquivCfg()
	tr, err := workload.GenerateTrace(b, workload.Quick, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampling, epoch := gateSampling()
	sampled, err := Simulate(context.Background(), tr, cfg, Options{Sampling: sampling, EpochCycles: epoch})
	if err != nil {
		t.Fatal(err)
	}
	rep := sampled.Sampled
	if rep == nil {
		t.Fatal("sampled run missing SampleReport")
	}
	relErr := float64(rep.ExtrapolatedCycles-oracle.Cycles) / float64(oracle.Cycles)
	if relErr < -0.10 || relErr > 0.10 {
		t.Errorf("extrapolated %d vs oracle %d: error %+.2f%% outside 10%% backstop",
			rep.ExtrapolatedCycles, oracle.Cycles, 100*relErr)
	}
	if rep.SampledFraction <= 0 || rep.SampledFraction >= 0.5 {
		t.Errorf("sampled instruction fraction %.4f outside (0, 0.5)", rep.SampledFraction)
	}
}
