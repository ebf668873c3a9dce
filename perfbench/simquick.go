package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"droplet/internal/cache"
	"droplet/internal/core"
	"droplet/internal/exp"
	"droplet/internal/graph"
	"droplet/internal/mem"
	"droplet/internal/memsys"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// quickWorkers is the number of goroutines running simulations: the
// benchmark host has 2 CPUs.
const quickWorkers = 2

// quickSetups is how many times a sim-quick run repeats its set-up; the
// median is reported as setup_s.
const quickSetups = 5

// quickGraph is one Table III proxy at quick scale (the shapes of
// workload.Datasets, with seeds derived from the benchmark seed) and the
// kernel the sim-quick list runs on it.
type quickGraph struct {
	dataset string
	algo    workload.Algorithm
	build   func(seed uint64) (*graph.CSR, error)
}

var quickGraphs = []quickGraph{
	{"kron", workload.PR, func(s uint64) (*graph.CSR, error) {
		return graph.Kron(14, 16, graph.GenOptions{Seed: s, Symmetrize: true})
	}},
	{"road", workload.BFS, func(s uint64) (*graph.CSR, error) {
		return graph.Grid(128, 128, graph.GenOptions{Seed: s})
	}},
	{"urand", workload.CC, func(s uint64) (*graph.CSR, error) {
		return graph.Uniform(14, 16, graph.GenOptions{Seed: s, Symmetrize: true})
	}},
	{"orkut", workload.SSSP, func(s uint64) (*graph.CSR, error) {
		return graph.SocialNetwork(13, 32, graph.GenOptions{Seed: s, Weighted: true, Symmetrize: true})
	}},
	{"livejournal", workload.BC, func(s uint64) (*graph.CSR, error) {
		return graph.SocialNetwork(14, 14, graph.GenOptions{Seed: s, Symmetrize: true})
	}},
}

// quickReq is one entry of the sim-quick list. The canonical request
// names the machine (prefetcher, replacement policy, scale); the trace
// comes from the seeded graph, not from the registered dataset the
// benchmark name refers to.
type quickReq struct {
	graph int
	q     simreq.Request
	cfg   sim.Config
}

func (r quickReq) label() string {
	return fmt.Sprintf("%s/%s/%s", r.q.Benchmark, r.q.Prefetcher, r.q.Replacement)
}

// quickRequests lists every kernel under nopf, stream, droplet and pickle,
// plus one nopf request per non-LRU LLC replacement policy.
func quickRequests() ([]quickReq, error) {
	var qs []simreq.Request
	var graphs []int
	bench := func(g quickGraph) string { return workload.Benchmark{Algo: g.algo, Dataset: g.dataset}.String() }
	for gi, g := range quickGraphs {
		for _, pf := range []core.PrefetcherKind{core.NoPrefetch, core.Stream, core.DROPLET, core.Pickle} {
			qs = append(qs, simreq.Request{Benchmark: bench(g), Scale: "quick", Prefetcher: pf.String()})
			graphs = append(graphs, gi)
		}
	}
	gi := 0
	for _, k := range cache.AllKinds() {
		if k == cache.KindLRU {
			continue
		}
		g := quickGraphs[gi%len(quickGraphs)]
		qs = append(qs, simreq.Request{Benchmark: bench(g), Scale: "quick", Replacement: k.String()})
		graphs = append(graphs, gi%len(quickGraphs))
		gi++
	}
	out := make([]quickReq, len(qs))
	for i, q := range qs {
		cfg, nq, err := machineFor(q)
		if err != nil {
			return nil, err
		}
		out[i] = quickReq{graph: graphs[i], q: nq, cfg: cfg}
	}
	return out, nil
}

// machineFor resolves a canonical request to the machine the experiment
// suite would simulate it on.
func machineFor(q simreq.Request) (sim.Config, simreq.Request, error) {
	rv, err := q.Resolve()
	if err != nil {
		return sim.Config{}, simreq.Request{}, err
	}
	cfg := exp.Machine(rv.Scale)
	cfg.Cores = rv.Cores
	cfg.Prefetcher = rv.Prefetcher
	cfg.LLC.Policy = rv.Replacement
	cfg.L1.Policy = rv.ReplacementL1
	cfg.L2.Policy = rv.ReplacementL2
	return cfg, rv.Request(), nil
}

// quickInputs are the generated traces and the sizes of their inputs.
type quickInputs struct {
	traces                      []*trace.Trace
	shapes                      []graphShape
	edges, events, instructions float64
}

// quickSetup generates every graph and trace of the sim-quick list.
func quickSetup(seed uint64, tc *tracer) (*quickInputs, error) {
	in := &quickInputs{traces: make([]*trace.Trace, len(quickGraphs))}
	for i, qg := range quickGraphs {
		t0 := time.Now()
		g, err := qg.build(deriveSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("graph %s: %w", qg.dataset, err)
		}
		tc.add("graph.gen", -1, i, t0, time.Now())
		in.edges += float64(g.NumEdges())
		in.shapes = append(in.shapes, graphShape{qg.dataset, qg.algo.Weighted(), g.NumVertices(), g.NumEdges()})

		opt := trace.Options{Cores: simreq.DefaultCores, MaxEvents: workload.Quick.MaxEvents(), PRIters: 2}
		src := graph.LargestComponentSource(g)
		var tr *trace.Trace
		t2 := time.Now()
		switch qg.algo {
		case workload.PR:
			gt := g.Transpose()
			t3 := time.Now()
			tc.add("graph.transpose", -1, i, t2, t3)
			t2 = t3
			tr, _ = trace.PageRank(g, gt, opt)
		case workload.BFS:
			tr, _ = trace.BFS(g, src, opt)
		case workload.CC:
			tr, _ = trace.CC(g, opt)
		case workload.SSSP:
			tr, _ = trace.SSSP(g, src, 0, opt)
		case workload.BC:
			sources := []uint32{src}
			if n := g.NumVertices(); n > 1 {
				sources = append(sources, uint32(n/2))
			}
			tr, _ = trace.BC(g, sources, opt)
		}
		tc.add("trace.gen", -1, i, t2, time.Now())
		in.events += float64(tr.Events())
		in.instructions += float64(tr.Instructions)
		in.traces[i] = tr
	}
	return in, nil
}

// quickOp is the outcome of one simulation.
type quickOp struct {
	idx            int
	start, end     time.Time
	events         int64
	cycles, instrs int64
	stackSum       float64
	summary        []byte
	err            error
}

func (o quickOp) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// simulateQuick runs request idx through sim.Run and digests its result.
func simulateQuick(reqs []quickReq, in *quickInputs, idx int) quickOp {
	r := reqs[idx]
	tr := in.traces[r.graph]
	op := quickOp{idx: idx, events: tr.Events(), start: time.Now()}
	res, err := sim.Run(tr, r.cfg)
	op.end = time.Now()
	if err != nil {
		op.err = err
		return op
	}
	op.cycles, op.instrs = res.Cycles, res.Instructions
	op.stackSum = stackSum(res)
	op.summary, op.err = json.Marshal(res.Summarize())
	return op
}

// stackSum adds up a result's cycle-stack fractions, which must total 1.
func stackSum(res *sim.Result) float64 {
	base, byLevel := res.CycleStack()
	for _, f := range byLevel {
		base += f
	}
	return base
}

// checkQuickResult checks what every simulation must satisfy and that a
// repeat of a request reproduces the first result exactly.
func checkQuickResult(r *report, reqs []quickReq, op quickOp, first map[int][]byte) {
	label := reqs[op.idx].label()
	if op.err != nil {
		r.check(false, "%s: %v", label, op.err)
		return
	}
	r.check(math.Abs(op.stackSum-1) < 1e-9, "%s: cycle-stack fractions sum to %.12f, want 1", label, op.stackSum)
	if prev, ok := first[op.idx]; ok {
		r.check(string(prev) == string(op.summary), "%s: repeated simulation differs from the first", label)
	} else {
		first[op.idx] = op.summary
	}
}

// quickDigest hashes the first summary of each request in list order.
func quickDigest(reqs []quickReq, first map[int][]byte) (string, error) {
	var items []any
	for i := range reqs {
		if s, ok := first[i]; ok {
			items = append(items, json.RawMessage(s))
		}
	}
	return digest(items)
}

// runSimQuick is the sim-quick workload: the fixed request list run
// through sim.Run on two worker goroutines, in a seeded order, over and
// over until the timed phase ends.
func runSimQuick(cfg config, r *report) error {
	reqs, err := quickRequests()
	if err != nil {
		return err
	}
	if cfg.traced {
		return traceSimQuick(cfg, r, reqs)
	}
	var setups []float64
	var in *quickInputs
	for i := 0; i < quickSetups; i++ {
		in = nil
		runtime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		if in, err = quickSetup(cfg.seed, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	// Pass p takes the list in a seeded order. Workers take the next
	// request until a pass has been handed out whole after the deadline,
	// so a run is whole passes and every run simulates the same mix.
	n := len(reqs)
	var mu sync.Mutex
	handed, stopped := 0, false
	ph := startPhase()
	deadline := ph.wall.Add(time.Duration(cfg.seconds * float64(time.Second)))
	ops := runPool(quickWorkers, func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (handed > 0 && handed%n == 0 && time.Now().After(deadline)) {
			stopped = true
			return 0, false
		}
		i := handed
		handed++
		return newRand(cfg.seed, 100+i/n).Perm(n)[i%n], true
	}, func(idx int) quickOp { return simulateQuick(reqs, in, idx) })

	end := ph.wall
	events := make([]float64, n)
	byReq := make([][]float64, n)
	var secs []float64
	first := make(map[int][]byte)
	for _, op := range ops {
		checkQuickResult(r, reqs, op, first)
		if op.end.After(end) {
			end = op.end
		}
		events[op.idx] = float64(op.events)
		byReq[op.idx] = append(byReq[op.idx], op.seconds())
		secs = append(secs, op.seconds())
	}
	ph.finish(r, end, cfg.seconds)
	eventRate, reqRate := medianRates(quickWorkers, events, byReq)
	r.attempted = len(ops)
	r.set("events_per_s", eventRate)
	r.set("req_per_s", reqRate)
	latencySummary(r, secs, 0.75, "simulations")
	d, err := quickDigest(reqs, first)
	if err != nil {
		return err
	}
	r.notef("digest sim-quick seed=%d: %s (%.1f passes of %d requests)", cfg.seed, d, float64(len(ops))/float64(n), n)
	return checkShapes(r, workload.Quick, in.shapes)
}

// tracedOp is one request of the traced pass.
type tracedOp struct {
	idx            int
	machineOK      bool // drives with and without recording agree
	accesses       int
	mismatches     int
	cycles, instrs int64
	summary        []byte
	stackSum       float64
	counters       hierCounters
	// ref is the same request through sim.Run, timed next to the traced
	// drive so host-speed drift affects both alike.
	ref quickOp
	err error
}

// logPool recycles access logs between traced requests.
var logPool = sync.Pool{New: func() any { return new([]access) }}

// quickSpan is one timed call of a traced request, recorded once the
// request is done.
type quickSpan struct {
	name   string
	t0, t1 time.Time
}

func (s quickSpan) seconds() float64 { return s.t1.Sub(s.t0).Seconds() }

// timedSpan runs f and returns its span.
func timedSpan(name string, f func() error) (quickSpan, error) {
	t0 := time.Now()
	err := f()
	return quickSpan{name, t0, time.Now()}, err
}

// traceQuickOp rebuilds the machine for request idx and drives it with
// a recording port, then replays the recorded memsys.Access stream into a
// fresh hierarchy with the request's engines and, for prefetching
// requests, into one without them. The layer decomposition is timed on
// the rebuilt machine without the recording port, so the recording's own
// cost shows only in bench.trace_overhead_s. The untraced sim.Run and
// that drive are each timed twice, in the order run, drive, (recorded
// drive), drive, run, and only the faster of each pair is recorded as a
// span, so a burst of host noise inflates neither side of the comparison.
// The replay spans are named by what they contain: memsys.replay for a
// nopf request, memsys.replay_engines and memsys.replay_nopf for a
// prefetching one.
func traceQuickOp(tc *tracer, reqs []quickReq, in *quickInputs, idx int) tracedOp {
	rq := reqs[idx]
	tr := in.traces[rq.graph]
	op := tracedOp{idx: idx}
	op.ref = simulateQuick(reqs, in, idx)

	log := logPool.Get().(*[]access)
	defer logPool.Put(log)
	if int64(cap(*log)) < tr.Events() {
		*log = make([]access, 0, tr.Events())
	}
	var plain, recorded *sim.Result
	var drive, record quickSpan
	for k := 0; k < 2; k++ {
		d, err := timedSpan("cpu.drive", func() (err error) { plain, err = runRebuilt(tr, rq.cfg, nil); return err })
		if err != nil {
			op.err = err
			return op
		}
		if k == 0 || d.seconds() < drive.seconds() {
			drive = d
		}
		if k == 0 {
			if record, err = timedSpan("cpu.drive_recorded", func() (err error) {
				recorded, err = runRebuilt(tr, rq.cfg, log)
				return err
			}); err != nil {
				op.err = err
				return op
			}
		}
	}
	if again := simulateQuick(reqs, in, idx); again.err == nil && again.seconds() < op.ref.seconds() {
		op.ref = again
	}
	spans := []quickSpan{{"sim.run", op.ref.start, op.ref.end}, drive, record}

	op.machineOK = plain.Cycles == recorded.Cycles && plain.Instructions == recorded.Instructions
	op.cycles, op.instrs = recorded.Cycles, recorded.Instructions
	op.accesses = len(*log)
	op.counters = countHier(recorded.Hier)
	op.stackSum = stackSum(recorded)
	if op.summary, op.err = json.Marshal(recorded.Summarize()); op.err != nil {
		return op
	}

	name := "memsys.replay"
	if rq.cfg.Prefetcher != core.NoPrefetch {
		name = "memsys.replay_engines"
	}
	rs, err := timedSpan(name, func() (err error) {
		_, op.mismatches, err = replay(tr, rq.cfg, rq.cfg.Prefetcher, *log)
		return err
	})
	if err != nil {
		op.err = err
		return op
	}
	spans = append(spans, rs)
	if rq.cfg.Prefetcher != core.NoPrefetch {
		ns, err := timedSpan("memsys.replay_nopf", func() (err error) {
			_, _, err = replay(tr, rq.cfg, core.NoPrefetch, *log)
			return err
		})
		if err != nil {
			op.err = err
			return op
		}
		spans = append(spans, ns)
	}
	first, last := spans[0].t0, spans[0].t1
	for _, c := range spans {
		if c.t0.Before(first) {
			first = c.t0
		}
		if c.t1.After(last) {
			last = c.t1
		}
	}
	root := tc.add("request", -1, idx, first, last)
	for _, c := range spans {
		tc.add(c.name, root, idx, c.t0, c.t1)
	}
	return op
}

// hierCounters are the exact simulated counts read from a hierarchy's
// public statistics.
type hierCounters struct {
	l1Acc, l1Miss, l2Acc, l2Miss, llcAcc, llcMiss float64
	dramReads, dramWrites, rowHits, rowMisses     float64
	mrbStalls, pfIssued, pfUseful, pfFiltered     float64
	merged                                        float64
}

func countHier(h *memsys.Hierarchy) hierCounters {
	var c hierCounters
	for i := 0; i < h.NumCores(); i++ {
		c.l1Acc += float64(h.L1(i).Stats().TotalAccesses())
		c.l1Miss += float64(h.L1(i).Stats().TotalMisses())
		if l2 := h.L2(i); l2 != nil {
			c.l2Acc += float64(l2.Stats().TotalAccesses())
			c.l2Miss += float64(l2.Stats().TotalMisses())
		}
	}
	c.llcAcc = float64(h.LLC().Stats().TotalAccesses())
	c.llcMiss = float64(h.LLC().Stats().TotalMisses())
	ds := h.MC().Stats()
	c.dramReads, c.dramWrites = float64(ds.Reads), float64(ds.Writes)
	c.rowHits, c.rowMisses = float64(ds.RowHits), float64(ds.RowMisses)
	c.mrbStalls = float64(ds.MRBFullStalls)
	st := h.Stats()
	useful := h.PrefetchUseful()
	for dt := 0; dt < mem.NumDataTypes; dt++ {
		c.pfIssued += float64(st.PrefetchIssuedByType[dt])
		c.pfUseful += float64(useful[dt])
		c.merged += float64(st.DemandMergedInFlight[dt])
	}
	c.pfFiltered = float64(st.PrefetchFilteredOnChip)
	return c
}

func (c *hierCounters) add(o hierCounters) {
	c.l1Acc += o.l1Acc
	c.l1Miss += o.l1Miss
	c.l2Acc += o.l2Acc
	c.l2Miss += o.l2Miss
	c.llcAcc += o.llcAcc
	c.llcMiss += o.llcMiss
	c.dramReads += o.dramReads
	c.dramWrites += o.dramWrites
	c.rowHits += o.rowHits
	c.rowMisses += o.rowMisses
	c.mrbStalls += o.mrbStalls
	c.pfIssued += o.pfIssued
	c.pfUseful += o.pfUseful
	c.pfFiltered += o.pfFiltered
	c.merged += o.merged
}

// setCounters reports the cache, DRAM and prefetch counts.
func (c hierCounters) setCounters(r *report) {
	r.set("cache.l1.accesses", c.l1Acc)
	r.set("cache.l1.misses", c.l1Miss)
	r.set("cache.l2.accesses", c.l2Acc)
	r.set("cache.l2.misses", c.l2Miss)
	r.set("cache.llc.accesses", c.llcAcc)
	r.set("cache.llc.misses", c.llcMiss)
	r.set("cache.llc.hit_ratio", ratio(c.llcAcc-c.llcMiss, c.llcAcc))
	r.set("dram.reads", c.dramReads)
	r.set("dram.writes", c.dramWrites)
	r.set("dram.row_hit_ratio", ratio(c.rowHits, c.rowHits+c.rowMisses))
	r.set("dram.mrb_full_stalls", c.mrbStalls)
	r.set("prefetch.issued", c.pfIssued)
	r.set("prefetch.useful_ratio", ratio(c.pfUseful, c.pfIssued))
	r.set("prefetch.filtered_on_chip", c.pfFiltered)
	r.set("memsys.merged_in_flight", c.merged)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceSimQuick is the traced sim-quick run: one untraced pass of the
// list through sim.Run (the digest and host counters), then one pass in
// which every request runs through sim.Run and through the rebuilt
// machine and its replays. Every time below is a sum of recorded spans.
// Layer self times: prefetch is the replay with the request's engines
// minus the nopf replay of the same stream, memsys is the rest of the
// replays, and cpu is the rest of the drive.
func traceSimQuick(cfg config, r *report, reqs []quickReq) error {
	tc := newTracer(true)
	in, err := quickSetup(cfg.seed, tc)
	if err != nil {
		return err
	}
	r.set("graph.edges", in.edges)
	r.set("trace.events", in.events)
	r.set("trace.instructions", in.instructions)

	n := len(reqs)
	ph := startPhase()
	opsA := runPool(quickWorkers, upTo(n), func(idx int) quickOp { return simulateQuick(reqs, in, idx) })
	ph.finish(r, time.Now(), cfg.seconds)
	firstA := make(map[int][]byte)
	for _, op := range opsA {
		checkQuickResult(r, reqs, op, firstA)
	}

	opsB := runPool(quickWorkers, upTo(n), func(idx int) tracedOp { return traceQuickOp(tc, reqs, in, idx) })

	var events, accesses, mismatches, instrs, cycles float64
	var counters hierCounters
	firstB := make(map[int][]byte)
	for _, op := range opsB {
		label := reqs[op.idx].label()
		if op.err != nil {
			r.check(false, "%s: traced run: %v", label, op.err)
			continue
		}
		checkQuickResult(r, reqs, op.ref, firstA)
		events += float64(op.ref.events)
		ref := op.ref
		r.check(ref.cycles == op.cycles && ref.instrs == op.instrs && op.machineOK,
			"%s: rebuilt machine does not reproduce sim.Run's cycles and instructions", label)
		r.check(op.mismatches == 0, "%s: replay has %d mismatched completions", label, op.mismatches)
		r.check(math.Abs(op.stackSum-1) < 1e-9, "%s: rebuilt machine's cycle stack sums to %.12f, want 1", label, op.stackSum)
		firstB[op.idx] = op.summary
		accesses += float64(op.accesses)
		mismatches += float64(op.mismatches)
		instrs += float64(op.instrs)
		cycles += float64(op.cycles)
		counters.add(op.counters)
	}
	r.attempted = len(opsA) + len(opsB)
	dA, err := quickDigest(reqs, firstA)
	if err != nil {
		return err
	}
	dB, err := quickDigest(reqs, firstB)
	if err != nil {
		return err
	}
	r.check(dA == dB, "summary digest differs between the untraced (%s) and traced (%s) runs", dA, dB)
	r.notef("digest sim-quick seed=%d: %s", cfg.seed, dA)
	if err := checkShapes(r, workload.Quick, in.shapes); err != nil {
		return err
	}

	t := tc.totals()
	runS, driveS := t["sim.run"].secs, t["cpu.drive"].secs
	replayS := t["memsys.replay"].secs + t["memsys.replay_engines"].secs
	deltaS := t["memsys.replay_engines"].secs - t["memsys.replay_nopf"].secs
	cpuS := driveS - replayS
	r.set("graph.gen_s", t["graph.gen"].secs)
	r.set("graph.transpose_s", t["graph.transpose"].secs)
	r.set("trace.gen_s", t["trace.gen"].secs)
	r.set("sim.run_s", runS)
	r.set("sim.ns_per_event", 1e9*runS/events)
	r.set("cpu.self_s", cpuS)
	r.set("cpu.share", ratio(cpuS, driveS))
	r.set("cpu.instructions", instrs)
	r.set("cpu.sim_cycles", cycles)
	r.set("memsys.self_s", replayS)
	r.set("memsys.share", ratio(replayS, driveS))
	r.set("memsys.accesses", accesses)
	r.set("memsys.ns_per_access", 1e9*ratio(replayS, accesses))
	r.set("prefetch.replay_delta_s", deltaS)
	counters.setCounters(r)
	r.set("bench.replay_mismatches", mismatches)
	r.set("bench.trace_overhead_s", t["cpu.drive_recorded"].secs-runS)
	sumRatio := ratio(driveS, runS)
	r.set("bench.layer_sum_ratio", sumRatio)
	r.check(math.Abs(sumRatio-1) <= 0.10, "layer self times sum to %.3f of the untraced sim.Run time, want within 10%%", sumRatio)
	r.table = []layerRow{
		{"cpu", events, cpuS},
		{"memsys", accesses, replayS - deltaS},
		{"prefetch", counters.pfIssued, deltaS},
	}
	r.notef("layer self times sum to %.4f s = %.3f of the untraced sim.Run time %.4f s; the recording drive adds %.4f s",
		driveS, sumRatio, runS, t["cpu.drive_recorded"].secs-runS)

	qs := make([]simreq.Request, n)
	for i, rq := range reqs {
		qs[i] = rq.q
	}
	if err := simreqCost(r, qs); err != nil {
		return err
	}
	path, err := tc.write(cfg.spanDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	r.notef("spans: %d recorded, written to %s", len(tc.spans), path)
	return nil
}
