package main

import (
	"fmt"

	"droplet/internal/core"
	"droplet/internal/cpu"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/trace"
)

// access is one recorded call of the core model into the memory
// hierarchy, with the values the hierarchy returned. It packs into 24
// bytes: the log streams through the host's caches while the simulator
// runs, and a wider record slows the drive it is recording.
type access struct {
	addr    mem.Addr
	now     int64
	latency int32 // completion time minus now
	core    uint8
	dtype   mem.DataType
	write   bool
	level   memsys.Level
}

// recordingPort is a cpu.MemPort that forwards to a hierarchy and
// records every access, so the memsys layer can later be replayed and
// timed on its own.
type recordingPort struct {
	h   *memsys.Hierarchy
	log []access
}

func (p *recordingPort) Access(c int, vaddr mem.Addr, dtype mem.DataType, write bool, now int64) (int64, memsys.Level) {
	complete, lvl := p.h.Access(c, vaddr, dtype, write, now)
	p.log = append(p.log, access{addr: vaddr, now: now, latency: int32(complete - now), core: uint8(c), dtype: dtype, write: write, level: lvl})
	return complete, lvl
}

// newHierarchy builds the memory hierarchy of cfg with its prefetch
// engines attached, exactly as sim.Run does.
func newHierarchy(tr *trace.Trace, cfg sim.Config, kind core.PrefetcherKind) (*memsys.Hierarchy, *core.Attachment, error) {
	h, err := memsys.New(memsys.Config{
		Cores: cfg.Cores,
		L1:    cfg.L1,
		L2:    cfg.L2,
		LLC:   cfg.LLC,
		NoL2:  cfg.NoL2,
		DRAM:  cfg.DRAM,
	}, tr.Layout.AS)
	if err != nil {
		return nil, nil, err
	}
	att, err := core.Attach(kind, h, tr.Layout, cfg.Prefetch)
	if err != nil {
		return nil, nil, err
	}
	return h, att, nil
}

// runRebuilt simulates tr on a machine built from memsys.New, core.Attach
// and cpu.NewCore. With a non-nil log, a recording port sits between the
// cores and the hierarchy and the accesses are appended to (*log)[:0], so
// a caller can reuse one buffer; otherwise the cores call the hierarchy
// directly, as in sim.Run. The drive loop applies sim's election rule:
// step the runnable core with the smallest (clock, index), release a
// barrier at the latest arrival once every unfinished core waits at it.
// Like sim's quantum driver it keeps stepping the elected core while it
// would be re-elected, which executes the same step sequence.
func runRebuilt(tr *trace.Trace, cfg sim.Config, log *[]access) (*sim.Result, error) {
	if cfg.Cores != tr.NumCores() {
		return nil, fmt.Errorf("machine has %d cores but trace has %d streams", cfg.Cores, tr.NumCores())
	}
	h, att, err := newHierarchy(tr, cfg, cfg.Prefetcher)
	if err != nil {
		return nil, err
	}
	var port cpu.MemPort = h
	var rec *recordingPort
	if log != nil {
		rec = &recordingPort{h: h, log: (*log)[:0]}
		port = rec
	}
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		cores[i] = cpu.NewCore(i, cfg.CPU, port, tr.PerCore[i])
	}
	drive(cores)
	if rec != nil {
		*log = rec.log
	}
	res := &sim.Result{
		Config:     cfg,
		CoreStats:  make([]cpu.Stats, cfg.Cores),
		Hier:       h,
		Attachment: att,
	}
	for i, c := range cores {
		s := *c.Stats()
		res.CoreStats[i] = s
		res.Cycles = max(res.Cycles, s.Cycles)
		res.Instructions += s.Instructions
	}
	return res, nil
}

// drive runs every core to the end of its stream.
func drive(cores []*cpu.Core) {
	for {
		best, runner := -1, -1
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
			case best < 0:
				best, bestClk = i, clk
			case clk < bestClk:
				runner, runnerClk = best, bestClk
				best, bestClk = i, clk
			case runner < 0 || clk < runnerClk:
				runner, runnerClk = i, clk
			}
		}
		if allDone {
			return
		}
		if best < 0 {
			var t int64
			for _, c := range cores {
				t = max(t, c.Clock())
			}
			for _, c := range cores {
				if c.AtBarrier() {
					c.PassBarrier(t)
				}
			}
			continue
		}
		next := cores[best]
		if runner < 0 {
			for !next.Done() && !next.AtBarrier() {
				next.Step()
			}
			continue
		}
		tieWins := best < runner
		for {
			next.Step()
			if next.Done() || next.AtBarrier() {
				break
			}
			if clk := next.Clock(); clk > runnerClk || (clk == runnerClk && !tieWins) {
				break
			}
		}
	}
}

// replay feeds a recorded access stream into a fresh hierarchy with the
// prefetch engines of kind attached and returns the number of accesses
// whose completion time or servicing level differs from the recording.
// Only a replay with the recording's own engines is expected to match.
func replay(tr *trace.Trace, cfg sim.Config, kind core.PrefetcherKind, log []access) (*memsys.Hierarchy, int, error) {
	h, _, err := newHierarchy(tr, cfg, kind)
	if err != nil {
		return nil, 0, err
	}
	mismatches := 0
	for i := range log {
		a := &log[i]
		complete, lvl := h.Access(int(a.core), a.addr, a.dtype, a.write, a.now)
		if complete != a.now+int64(a.latency) || lvl != a.level {
			mismatches++
		}
	}
	return h, mismatches, nil
}
