package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/graph"
	"droplet/internal/memsys"
	"droplet/internal/trace"
)

// run builds the machine for tr and lets drive push every core through
// its stream.
func run(tr *trace.Trace, cfg Config, drive func([]*cpu.Core)) (*Result, error) {
	if cfg.Cores != tr.NumCores() {
		return nil, fmt.Errorf("sim: machine has %d cores but trace has %d streams", cfg.Cores, tr.NumCores())
	}
	m, err := newMachine(cfg, tr.Layout, func(i int, h *memsys.Hierarchy) *cpu.Core {
		return cpu.NewCore(i, cfg.CPU, h, tr.PerCore[i])
	})
	if err != nil {
		return nil, err
	}
	drive(m.cores)
	return m.result(), nil
}

// driveReference is the per-event scheduler drive must reproduce: every
// iteration rescans all cores and steps the runnable one with the
// smallest local clock (ties to the lowest index); when every unfinished
// core is parked at a barrier, they release together at the latest
// arrival time. O(cores) per event.
func driveReference(cores []*cpu.Core) {
	for {
		var next *cpu.Core
		var nextClock int64
		allDone := true
		for _, c := range cores {
			if c.Done() {
				continue
			}
			allDone = false
			if c.AtBarrier() {
				continue
			}
			if clk := c.Clock(); next == nil || clk < nextClock {
				next = c
				nextClock = clk
			}
		}
		if allDone {
			return
		}
		if next == nil {
			releaseBarrier(cores)
			continue
		}
		next.Step()
	}
}

// TestQuantumDriverMatchesReference pins drive to the per-event
// reference loop: for every (kernel, prefetcher) permutation the two
// must produce bit-identical results — same cycles, same per-core
// counters, same hierarchy and DRAM statistics. drive exists purely as a
// faster encoding of the reference's step sequence (elect the min-clock
// core once, then keep stepping it while it would keep winning
// re-election), so any divergence here is a scheduling bug, not a
// modeling change. The observed mode ends quanta at every epoch boundary
// of a fine granularity and polls a cancellable context: neither may
// change the executed step sequence.
func TestQuantumDriverMatchesReference(t *testing.T) {
	g, err := graph.Kron(10, 8, graph.GenOptions{Seed: 7, Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestComponentSource(g)

	traces := map[string]*trace.Trace{}
	prTr, _ := trace.PageRank(g, g.Transpose(), trace.Options{Cores: 4, PRIters: 2})
	traces["PR"] = prTr
	bfsTr, _ := trace.BFS(g, src, trace.Options{Cores: 4})
	traces["BFS"] = bfsTr

	cfg := DefaultConfig()
	// Shrink the caches (fig11-style quick machine) so the traces actually
	// stress misses, prefetch timing, and barrier scheduling.
	cfg.L1.SizeBytes = 2 << 10
	cfg.L2.SizeBytes = 16 << 10
	cfg.LLC.SizeBytes = 32 << 10

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	modes := map[string]func([]*cpu.Core) error{
		"plain": func(cores []*cpu.Core) error {
			return drive(context.Background(), cores, DefaultEpochCycles, nil, nil)
		},
		"observed": func(cores []*cpu.Core) error {
			return drive(ctx, cores, 1000, func(int64) {}, nil)
		},
	}

	kinds := []core.PrefetcherKind{core.NoPrefetch, core.GHB, core.Stream, core.DROPLET}
	for name, tr := range traces {
		for _, kind := range kinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				c := cfg
				c.Prefetcher = kind
				ref, err := run(tr, c, driveReference)
				if err != nil {
					t.Fatal(err)
				}
				for mode, d := range modes {
					t.Run(mode, func(t *testing.T) {
						got, err := run(tr, c, func(cores []*cpu.Core) {
							if err := d(cores); err != nil {
								t.Fatal(err)
							}
						})
						if err != nil {
							t.Fatal(err)
						}
						if got.Cycles != ref.Cycles {
							t.Errorf("cycles: drive %d, reference %d", got.Cycles, ref.Cycles)
						}
						if got.Instructions != ref.Instructions {
							t.Errorf("instructions: drive %d, reference %d", got.Instructions, ref.Instructions)
						}
						if !reflect.DeepEqual(got.CoreStats, ref.CoreStats) {
							t.Errorf("per-core stats diverge:\ndrive     %+v\nreference %+v", got.CoreStats, ref.CoreStats)
						}
						if !reflect.DeepEqual(*got.Hier.Stats(), *ref.Hier.Stats()) {
							t.Errorf("hierarchy stats diverge:\ndrive     %+v\nreference %+v", *got.Hier.Stats(), *ref.Hier.Stats())
						}
						if !reflect.DeepEqual(*got.Hier.MC().Stats(), *ref.Hier.MC().Stats()) {
							t.Errorf("DRAM stats diverge:\ndrive     %+v\nreference %+v", *got.Hier.MC().Stats(), *ref.Hier.MC().Stats())
						}
						if !reflect.DeepEqual(*got.Hier.LLC().Stats(), *ref.Hier.LLC().Stats()) {
							t.Errorf("LLC stats diverge:\ndrive     %+v\nreference %+v", *got.Hier.LLC().Stats(), *ref.Hier.LLC().Stats())
						}
					})
				}
			})
		}
	}
}
