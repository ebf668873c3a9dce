// Package sim assembles the full simulated machine — N out-of-order cores
// with private L1/L2, a shared inclusive LLC, one memory controller, DRAM,
// and an optional prefetch configuration — and drives a multi-core trace
// through it, interleaving cores in local-time order and honoring the
// trace's barrier synchronization.
package sim

import (
	"context"
	"fmt"
	"math"

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/dram"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/telemetry"
	"droplet/internal/trace"
)

// Config describes a complete machine.
type Config struct {
	Cores      int
	CPU        cpu.Config
	L1         cache.Config
	L2         cache.Config
	LLC        cache.Config
	NoL2       bool
	DRAM       dram.Config
	Prefetcher core.PrefetcherKind
	Prefetch   core.Options
}

// DefaultConfig returns the paper's Table I baseline: 4 cores, 128-entry
// ROB, 32KB L1D, 256KB L2, 8MB 16-way LLC, DDR3 behind a single MC.
func DefaultConfig() Config {
	return Config{
		Cores:    4,
		CPU:      cpu.DefaultConfig(),
		L1:       cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4},
		L2:       cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LatencyTag: 3, LatencyData: 8},
		LLC:      cache.Config{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LatencyTag: 10, LatencyData: 30},
		DRAM:     dram.DefaultConfig(),
		Prefetch: core.DefaultOptions(),
	}
}

// ScaledConfig returns the baseline with caches scaled down by the given
// power-of-two factor (same latencies). The experiment harness pairs it
// with proportionally scaled graphs so every footprint-to-capacity ratio
// of the paper is preserved at tractable simulation cost; see DESIGN.md.
func ScaledConfig(shift uint) Config {
	c := DefaultConfig()
	c.L1.SizeBytes >>= shift
	c.L2.SizeBytes >>= shift
	c.LLC.SizeBytes >>= shift
	if c.L1.SizeBytes < 1<<10 {
		c.L1.SizeBytes = 1 << 10
	}
	if c.L2.SizeBytes < 4<<10 {
		c.L2.SizeBytes = 4 << 10
	}
	if c.LLC.SizeBytes < 32<<10 {
		c.LLC.SizeBytes = 32 << 10
	}
	return c
}

// memConfig lowers Config to the hierarchy's view.
func (c Config) memConfig() memsys.Config {
	return memsys.Config{
		Cores: c.Cores,
		L1:    c.L1,
		L2:    c.L2,
		LLC:   c.LLC,
		NoL2:  c.NoL2,
		DRAM:  c.DRAM,
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Config       Config
	Cycles       int64 // wall time: max over cores
	Instructions int64 // instructions actually dispatched (MPKI/BPKI denominator)
	CoreStats    []cpu.Stats
	Hier         *memsys.Hierarchy
	Attachment   *core.Attachment
	// Sampled carries the extrapolation of a sampled run (nil otherwise).
	// When set, Cycles is the raw fast-forward-inclusive clock and
	// Sampled.ExtrapolatedCycles is the full-run estimate.
	Sampled *SampleReport
}

// DefaultEpochCycles is the telemetry epoch granularity used when
// Options.EpochCycles is zero.
const DefaultEpochCycles = 100_000

// Options tunes Simulate beyond the machine Config. The zero value is
// equivalent to Run.
type Options struct {
	// Observer, when non-nil, is attached to the machine before the first
	// step and pulled at every epoch boundary.
	Observer telemetry.Observer
	// EpochCycles is the epoch granularity in core cycles (defaults to
	// DefaultEpochCycles). Only consulted when an Observer or Progress
	// callback is installed.
	EpochCycles int64
	// Progress, when non-nil, is called at every epoch boundary with the
	// elected core's clock — a cheap liveness signal for long runs.
	Progress func(cycle int64)
	// Sampling enables SMARTS-style interval sampling (zero disables).
	Sampling Sampling
	// DepRingEvents overrides the streaming dependency-ring size used by
	// SimulateStream (<= 0 picks cpu.DefaultDepRingEvents). Ignored by
	// the materialized path.
	DepRingEvents int
}

func (o Options) validate() error {
	if o.EpochCycles < 0 {
		return fmt.Errorf("sim: negative epoch granularity %d", o.EpochCycles)
	}
	if o.Sampling.Enabled() {
		if err := o.Sampling.withDefaults().validate(); err != nil {
			return err
		}
	}
	return nil
}

// Run simulates tr on a machine built from cfg.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	return Simulate(context.Background(), tr, cfg, Options{})
}

// Simulate runs tr on a machine built from cfg, honoring ctx
// cancellation and the observer/progress hooks in opts. Observers never
// change the executed step sequence, so the returned Result is identical
// with telemetry on or off.
func Simulate(ctx context.Context, tr *trace.Trace, cfg Config, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cfg.Cores != tr.NumCores() {
		return nil, fmt.Errorf("sim: machine has %d cores but trace has %d streams", cfg.Cores, tr.NumCores())
	}
	m, err := newMachine(cfg, tr.Layout, func(i int, h *memsys.Hierarchy) *cpu.Core {
		return cpu.NewCore(i, cfg.CPU, h, tr.PerCore[i])
	})
	if err != nil {
		return nil, err
	}
	return m.run(ctx, opts)
}

// machine is a built, not yet driven, simulated machine.
type machine struct {
	cfg   Config
	h     *memsys.Hierarchy
	att   *core.Attachment
	cores []*cpu.Core
}

// newMachine builds the hierarchy for cfg, attaches the configured
// prefetcher, and creates the cores with newCore — the one part the
// materialized and streaming paths do differently.
func newMachine(cfg Config, lay *trace.Layout, newCore func(i int, h *memsys.Hierarchy) *cpu.Core) (*machine, error) {
	h, err := memsys.New(cfg.memConfig(), lay.AS)
	if err != nil {
		return nil, err
	}
	att, err := core.Attach(cfg.Prefetcher, h, lay, cfg.Prefetch)
	if err != nil {
		return nil, err
	}
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		cores[i] = newCore(i, h)
	}
	return &machine{cfg: cfg, h: h, att: att, cores: cores}, nil
}

// run attaches opts' observer, drives the cores to completion, and folds
// the machine into a Result. Options must already be validated.
func (m *machine) run(ctx context.Context, opts Options) (*Result, error) {
	epoch := opts.EpochCycles
	if epoch == 0 {
		epoch = DefaultEpochCycles
	}
	onEpoch := opts.Progress
	if obs := opts.Observer; obs != nil {
		onEpoch = obs.Epoch
		if prog := opts.Progress; prog != nil {
			onEpoch = func(cyc int64) { obs.Epoch(cyc); prog(cyc) }
		}
		if err := obs.Attach(telemetry.Sources{Cores: m.cores, Hier: m.h, Att: m.att}); err != nil {
			return nil, err
		}
	}
	var acc *sampleAcc
	if opts.Sampling.Enabled() {
		acc = newSampleAcc(opts.Sampling.withDefaults(), epoch, len(m.cores))
	}
	if err := drive(ctx, m.cores, epoch, onEpoch, acc); err != nil {
		return nil, err
	}

	res := m.result()
	if acc != nil {
		res.Sampled = acc.report(res.CoreStats, res.Instructions, res.Cycles)
	}
	if opts.Observer != nil {
		if err := opts.Observer.Finish(res.Cycles); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// result folds the finished machine into a Result.
func (m *machine) result() *Result {
	res := &Result{
		Config:     m.cfg,
		CoreStats:  make([]cpu.Stats, len(m.cores)),
		Hier:       m.h,
		Attachment: m.att,
	}
	for i, c := range m.cores {
		s := *c.Stats()
		res.CoreStats[i] = s
		if s.Cycles > res.Cycles {
			res.Cycles = s.Cycles
		}
		res.Instructions += s.Instructions
	}
	return res
}

// drive runs every core through its stream in the order of the per-event
// reference scheduler (driveReference, in the tests): step the runnable
// core with the smallest clock, ties to the lowest index, and release a
// barrier at the latest arrival once every unfinished core is parked at
// it. Instead of rescanning per event, it elects the minimum core once
// and keeps stepping it for as long as the rescan would re-elect it —
// until its clock passes the runner-up's. Stepping a core never moves
// any other core's clock, barrier, or done state, so the runner-up
// computed once stays valid for the whole quantum, and ending a quantum
// early only re-elects the same core.
//
// That freedom carries the hooks. Quanta end at the next epoch boundary
// when onEpoch is set (it is called once the elected core's clock
// crosses it) and, under sampling (acc non-nil), at every epoch
// boundary, where a core's sampling phase can change; fast-forward
// epochs step with StepFast. ctx is polled once per election, and only
// if it can be cancelled. With no hooks the boundaries are
// math.MaxInt64 and the loop is the plain quantum scheduler. Every
// quantum has one exit test: the core finished, reached a barrier, or
// its clock reached limit, the lowest of these bounds and the
// runner-up's.
//
//droplet:hotpath
func drive(ctx context.Context, cores []*cpu.Core, epoch int64, onEpoch func(int64), acc *sampleAcc) error {
	cancellable := ctx.Done() != nil
	nextEpoch := int64(math.MaxInt64)
	if onEpoch != nil {
		nextEpoch = epoch
	}
	warm := acc != nil && acc.s.Warming == WarmFunctional
	for {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// Elect the (clock, index)-lexicographic minimum runnable core and
		// track the same minimum over the remaining runnable cores (the
		// runner-up). Ties resolve to the lower index in both scans: a
		// strict < keeps the first-seen minimum while scanning in index
		// order, and when a new best displaces the old one, the old best
		// is lexicographically below the old runner-up by the same
		// invariant, so it becomes the new runner-up.
		bestIdx, runnerIdx := -1, -1
		var bestClk, runnerClk int64
		allDone := true
		for i, c := range cores {
			if c.Done() {
				continue
			}
			allDone = false
			if c.AtBarrier() {
				continue
			}
			clk := c.Clock()
			switch {
			case bestIdx < 0:
				bestIdx, bestClk = i, clk
			case clk < bestClk:
				runnerIdx, runnerClk = bestIdx, bestClk
				bestIdx, bestClk = i, clk
			case runnerIdx < 0 || clk < runnerClk:
				runnerIdx, runnerClk = i, clk
			}
		}
		if allDone {
			if acc != nil {
				acc.finish(cores)
			}
			return nil
		}
		if bestIdx < 0 {
			if acc != nil {
				acc.recordBarrier(cores)
			}
			releaseBarrier(cores)
			continue
		}
		if bestClk >= nextEpoch {
			onEpoch(bestClk)
			nextEpoch = (bestClk/epoch + 1) * epoch
		}
		next := cores[bestIdx]
		limit, fast := nextEpoch, false
		if acc != nil {
			phase := acc.s.phase(bestClk, epoch)
			acc.observe(bestIdx, next, phase)
			fast = phase == phaseFF
			if fast && !warm {
				// Under WarmNone, fast-forward touches no shared state — the
				// core only consumes its own stream and advances its own
				// clock — so it can skip straight to its next detailed-phase
				// boundary without re-electing. Dropping the intermediate
				// elections cannot reorder the detailed cores' shared-
				// hierarchy accesses (their mutual clock order is untouched)
				// and window snapshots read only own-core counters, so the
				// Result is bit-identical to the epoch-capped schedule.
				limit = min(limit, acc.s.nextDetailedClock(bestClk, epoch))
				runnerIdx = -1
			} else {
				// The phase is a function of the clock, so it can only
				// change at an epoch boundary.
				limit = min(limit, (bestClk/epoch+1)*epoch)
			}
		}
		if runnerIdx >= 0 {
			// The elected core keeps winning re-election while its clock
			// stays below the runner-up's, or equals it with the lower
			// index: it yields at the first clock >= stop. A sole runnable
			// core runs to its next barrier, the end of its stream, or the
			// limit.
			stop := runnerClk
			if bestIdx < runnerIdx {
				stop++
			}
			limit = min(limit, stop)
		}
		for {
			if fast {
				next.StepFast(warm)
			} else {
				next.Step()
			}
			if next.Done() || next.AtBarrier() || next.Clock() >= limit {
				break
			}
		}
	}
}

// releaseBarrier opens the barrier every unfinished core is parked at,
// at the latest arrival time.
//
//droplet:hotpath
func releaseBarrier(cores []*cpu.Core) {
	var t int64
	for _, c := range cores {
		if clk := c.Clock(); clk > t {
			t = clk
		}
	}
	for _, c := range cores {
		if c.AtBarrier() {
			c.PassBarrier(t)
		}
	}
}

// IPC returns aggregate instructions per cycle across all cores.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Speedup returns base.Cycles / r.Cycles (Fig. 11's metric).
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// LLCMPKI returns shared-LLC demand misses per kilo-instruction (Fig. 4a).
func (r *Result) LLCMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hier.LLC().Stats().TotalMisses()) / float64(r.Instructions) * 1000
}

// DemandMPKIByType returns LLC demand misses (DRAM-bound requests) per
// kilo-instruction, split by data type (Fig. 13).
func (r *Result) DemandMPKIByType() [mem.NumDataTypes]float64 {
	var out [mem.NumDataTypes]float64
	if r.Instructions == 0 {
		return out
	}
	for dt, v := range r.Hier.Stats().LLCDemandMissesByType {
		out[dt] = float64(v) / float64(r.Instructions) * 1000
	}
	return out
}

// BPKI returns DRAM bus accesses per kilo-instruction (Fig. 15).
func (r *Result) BPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hier.MC().Stats().Accesses()) / float64(r.Instructions) * 1000
}

// BandwidthUtilization returns the DRAM channel busy fraction (Fig. 3a).
func (r *Result) BandwidthUtilization() float64 {
	return r.Hier.MC().BandwidthUtilization(r.Cycles)
}

// L2HitRate returns the aggregate private-L2 demand hit rate (Fig. 12).
func (r *Result) L2HitRate() float64 { return r.Hier.L2HitRate() }

// MLP returns the average outstanding DRAM loads across cores.
func (r *Result) MLP() float64 {
	var sum float64
	for i := range r.CoreStats {
		sum += r.CoreStats[i].MLP()
	}
	return sum
}

// CycleStack returns the fraction of wall cycles attributed to base
// execution and to stalls on each hierarchy level (Fig. 1). Fractions are
// averaged across cores.
func (r *Result) CycleStack() (base float64, byLevel [memsys.NumLevels]float64) {
	if r.Cycles == 0 {
		return 0, byLevel
	}
	n := float64(len(r.CoreStats))
	for i := range r.CoreStats {
		s := &r.CoreStats[i]
		total := float64(s.Cycles)
		if total == 0 {
			continue
		}
		base += float64(s.BaseCycles()) / total / n
		for l := 0; l < memsys.NumLevels; l++ {
			byLevel[l] += float64(s.StallByLevel[l]) / total / n
		}
	}
	return base, byLevel
}

// PrefetchAccuracy returns useful/issued prefetches for data type dt
// (Fig. 14). The second result is false when nothing was issued.
func (r *Result) PrefetchAccuracy(dt mem.DataType) (float64, bool) {
	issued := r.Hier.Stats().PrefetchIssuedByType[dt]
	if issued == 0 {
		return 0, false
	}
	useful := r.Hier.PrefetchUseful()[dt]
	acc := float64(useful) / float64(issued)
	if acc > 1 {
		acc = 1 // late demand merges can slightly overcount usefulness
	}
	return acc, true
}

// ServicedFractions returns, per data type, the fraction of demand
// accesses serviced by each level (Fig. 7).
func (r *Result) ServicedFractions() [mem.NumDataTypes][memsys.NumLevels]float64 {
	var out [mem.NumDataTypes][memsys.NumLevels]float64
	st := r.Hier.Stats()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		var total uint64
		for l := 0; l < memsys.NumLevels; l++ {
			total += st.ServicedBy[l][dt]
		}
		if total == 0 {
			continue
		}
		for l := 0; l < memsys.NumLevels; l++ {
			out[dt][l] = float64(st.ServicedBy[l][dt]) / float64(total)
		}
	}
	return out
}

// OffChipFractionByType returns the fraction of each data type's demand
// accesses that were serviced by DRAM (Fig. 4c).
func (r *Result) OffChipFractionByType() [mem.NumDataTypes]float64 {
	var out [mem.NumDataTypes]float64
	f := r.ServicedFractions()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		out[dt] = f[dt][memsys.LevelDRAM]
	}
	return out
}
