package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"droplet"
	"droplet/internal/graph"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/trace"
	"droplet/internal/workload"
)

// fullReq is one sampled-full request: a full-scale graph built fresh
// from a seed derived from the benchmark seed, its trace streamed with
// droplet.StreamOf, and sim.SimulateStream under SMARTS sampling.
type fullReq struct {
	bench    workload.Benchmark
	build    func(seed uint64) (*graph.CSR, error)
	seed     uint64
	cfg      sim.Config
	sampling sim.Sampling
	epoch    int64
}

// fullRecipe is the CI sampling gate's recipe.
var fullRecipe = simreq.Sampling{IntervalEpochs: 64, DetailEpochs: 2, WarmupEpochs: 6, Warming: "none"}

// fullSetups is how many times a sampled-full run repeats its set-up;
// the median is reported as setup_s.
const fullSetups = 3

// fullRequests lists three full-scale requests, in the Table III proxy
// shapes of workload.Datasets, of similar cost (about 3 s each on a
// 2-CPU host). Requests on the same dataset get the same graph seed, so
// the set-up builds each graph once.
func fullRequests(seed uint64) ([]fullReq, error) {
	kron := func(s uint64) (*graph.CSR, error) {
		return graph.Kron(17, 16, graph.GenOptions{Seed: s, Symmetrize: true})
	}
	urand := func(s uint64) (*graph.CSR, error) {
		return graph.Uniform(17, 16, graph.GenOptions{Seed: s, Symmetrize: true})
	}
	list := []struct {
		bench workload.Benchmark
		build func(uint64) (*graph.CSR, error)
	}{
		{workload.Benchmark{Algo: workload.PR, Dataset: "kron"}, kron},
		{workload.Benchmark{Algo: workload.BFS, Dataset: "urand"}, urand},
		{workload.Benchmark{Algo: workload.CC, Dataset: "kron"}, kron},
	}
	out := make([]fullReq, len(list))
	for i, e := range list {
		di := 0
		for di < len(workload.Datasets) && workload.Datasets[di].Name != e.bench.Dataset {
			di++
		}
		recipe := fullRecipe
		q := simreq.Request{Benchmark: e.bench.String(), Scale: "full", EpochCycles: 500, Sampling: &recipe}
		cfg, _, err := machineFor(q)
		if err != nil {
			return nil, err
		}
		rv, err := q.Resolve()
		if err != nil {
			return nil, err
		}
		out[i] = fullReq{bench: e.bench, build: e.build, seed: deriveSeed(seed, 200+di),
			cfg: cfg, sampling: rv.Sampling, epoch: rv.EpochCycles}
	}
	return out, nil
}

func (q fullReq) streamOf(g *graph.CSR) (*trace.Stream, error) {
	opt := trace.Options{Cores: q.cfg.Cores, MaxEvents: workload.Full.MaxEvents(), PRIters: 2}
	return droplet.StreamOf(q.bench.Algo, g, opt, droplet.StreamConfig{})
}

// drained is what a stream drained with no consumer produced.
type drained struct {
	memEvents, barriers int64
	instructions        int64
	shape               graphShape
}

// fullSetup builds each request's graph, once per graph seed, and
// drains each request's stream with no simulator attached: the
// reference counts a simulation must consume.
func fullSetup(tc *tracer, reqs []fullReq) ([]drained, error) {
	refs := make([]drained, len(reqs))
	graphs := make(map[uint64]*graph.CSR)
	for i, q := range reqs {
		g, ok := graphs[q.seed]
		if !ok {
			var err error
			if g, err = q.build(q.seed); err != nil {
				return nil, fmt.Errorf("%s: %w", q.bench, err)
			}
			graphs[q.seed] = g
		}
		var err error
		if refs[i], err = drainRef(tc, q, g, i); err != nil {
			return nil, fmt.Errorf("%s: %w", q.bench, err)
		}
	}
	return refs, nil
}

// drainRef drains request i's stream over g with no simulator attached.
func drainRef(tc *tracer, q fullReq, g *graph.CSR, i int) (drained, error) {
	var d drained
	t1 := time.Now()
	d.shape = graphShape{q.bench.Dataset, q.bench.Algo.Weighted(), g.NumVertices(), g.NumEdges()}
	st, err := q.streamOf(g)
	if err != nil {
		return d, err
	}
	st.Start()
	for c := 0; c < st.NumCores(); c++ {
		src := st.Source(c)
		var batch []trace.Event
		for batch = src.Next(nil); batch != nil; batch = src.Next(batch) {
			for i := range batch {
				if batch[i].Kind == trace.KindBarrier {
					d.barriers++
				} else {
					d.memEvents++
				}
			}
		}
	}
	st.Stop()
	d.instructions = st.Instructions()
	tc.add("trace.stream_drain", -1, i, t1, time.Now())
	return d, nil
}

// fullOp is the outcome of one sampled-full request.
type fullOp struct {
	req          int
	start, end   time.Time
	res          *sim.Result
	streamInstrs int64
	summary      []byte
	err          error
}

func (o fullOp) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// runFull executes request i: fresh graph, stream, sampled simulation.
func runFull(tc *tracer, reqs []fullReq, i, opID int) fullOp {
	q := reqs[i]
	op := fullOp{req: i, start: time.Now()}
	g, err := q.build(q.seed)
	t1 := time.Now()
	if err != nil {
		op.err = err
		return op
	}
	st, err := q.streamOf(g)
	t2 := time.Now()
	if err != nil {
		op.err = err
		return op
	}
	op.res, op.err = sim.SimulateStream(context.Background(), st, q.cfg, sim.Options{EpochCycles: q.epoch, Sampling: q.sampling})
	op.end = time.Now()
	if op.err != nil {
		return op
	}
	op.streamInstrs = st.Instructions()
	root := tc.add("request", -1, opID, op.start, op.end)
	tc.add("graph.gen", root, opID, op.start, t1)
	tc.add("trace.open", root, opID, t1, t2)
	tc.add("sim.sampled_run", root, opID, t2, op.end)
	op.summary, op.err = json.Marshal(op.res.Summarize())
	if tc != nil && q.bench.Algo == workload.PR {
		// StreamOf transposes PR graphs inside trace.open, together with
		// source selection; the traced run times a transpose on its own,
		// after the request.
		t := time.Now()
		g.Transpose()
		tc.add("graph.transpose", -1, opID, t, time.Now())
	}
	return op
}

// checkFull checks one sampled run against its drained reference and
// against earlier runs of the same request.
func checkFull(r *report, reqs []fullReq, refs []drained, op fullOp, first map[int][]byte) {
	label := reqs[op.req].bench.String()
	if op.err != nil {
		r.check(false, "%s: %v", label, op.err)
		return
	}
	rep := op.res.Sampled
	r.check(rep != nil && rep.SampledFraction > 0 && rep.SampledFraction < 1,
		"%s: want a SampleReport with 0 < SampledFraction < 1", label)
	var consumed int64
	for _, s := range op.res.CoreStats {
		consumed += s.Loads + s.Stores
	}
	ref := refs[op.req]
	r.check(consumed == ref.memEvents, "%s: simulation consumed %d memory events, the drained stream has %d", label, consumed, ref.memEvents)
	// Stream.Instructions counts the whole kernel, past the event budget;
	// both generator runs of one graph must agree on it.
	r.check(op.streamInstrs == ref.instructions, "%s: stream reports %d instructions, the drained stream %d",
		label, op.streamInstrs, ref.instructions)
	if prev, ok := first[op.req]; ok {
		r.check(string(prev) == string(op.summary), "%s: repeated simulation differs from the first", label)
	} else {
		first[op.req] = op.summary
	}
}

// runSampledFull is the sampled-full workload: serial full-scale
// requests, in whole passes over the list (each pass in a seeded order)
// until the timed phase has lasted --seconds.
func runSampledFull(cfg config, r *report) error {
	reqs, err := fullRequests(cfg.seed)
	if err != nil {
		return err
	}
	tc := newTracer(cfg.traced)
	var refs []drained
	if cfg.traced {
		if refs, err = fullSetup(tc, reqs); err != nil {
			return err
		}
	} else {
		var setups []float64
		for k := 0; k < fullSetups; k++ {
			refs = nil
			runtime.GC() // each repetition starts from a collected heap
			t0 := time.Now()
			if refs, err = fullSetup(nil, reqs); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		r.set("setup_s", median(setups))
	}

	// Pass p runs the list in a seeded order. The first pass always
	// completes; after it a request starts only before the deadline (the
	// traced run makes exactly one pass).
	var ops []fullOp
	ph := startPhase()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	for k := 0; k < len(reqs) || (!cfg.traced && time.Since(ph.wall) < limit); k++ {
		i := newRand(cfg.seed, 300+k/len(reqs)).Perm(len(reqs))[k%len(reqs)]
		ops = append(ops, runFull(tc, reqs, i, k))
	}
	passes := float64(len(ops)) / float64(len(reqs))
	ph.finish(r, time.Now(), cfg.seconds)

	first := make(map[int][]byte)
	events := make([]float64, len(reqs))
	byReq := make([][]float64, len(reqs))
	var totalEvents float64
	for _, op := range ops {
		checkFull(r, reqs, refs, op, first)
		ev := float64(refs[op.req].memEvents + refs[op.req].barriers)
		events[op.req] = ev
		totalEvents += ev
		byReq[op.req] = append(byReq[op.req], op.seconds())
	}
	r.attempted = len(ops)
	var items []any
	for i := range reqs {
		items = append(items, json.RawMessage(first[i]))
	}
	d, err := digest(items)
	if err != nil {
		return err
	}
	r.notef("digest sampled-full seed=%d: %s (%.2f passes of %d requests)", cfg.seed, d, passes, len(reqs))
	shapes := make([]graphShape, len(refs))
	for i, ref := range refs {
		shapes[i] = ref.shape
	}
	if err := checkShapes(r, workload.Full, shapes); err != nil {
		return err
	}

	if !cfg.traced {
		// A run completes only about six requests, too few for any
		// percentile to have ten samples beyond it; the latencies are the
		// median and the maximum of the requests' median times.
		eventRate, reqRate := medianRates(1, events, byReq)
		meds := make([]float64, 0, len(reqs))
		for _, ds := range byReq {
			meds = append(meds, median(ds))
		}
		r.set("events_per_s", eventRate)
		r.set("req_per_s", reqRate)
		r.set("latency_p50_ms", 1e3*median(meds))
		r.set("latency_tail_ms", 1e3*slices.Max(meds))
		r.notef("latency_p50_ms and latency_tail_ms are the median and maximum of the %d requests' median times over %d runs",
			len(reqs), len(ops))
		return nil
	}

	var edges, traceInstrs, instrs, measured, cycles, accesses float64
	var counters hierCounters
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		edges += float64(refs[op.req].shape.edges)
		traceInstrs += float64(refs[op.req].instructions)
		instrs += float64(op.res.Instructions)
		cycles += float64(op.res.Cycles)
		if op.res.Sampled != nil {
			measured += float64(op.res.Sampled.MeasuredInstructions)
		}
		c := countHier(op.res.Hier)
		accesses += c.l1Acc
		counters.add(c)
	}
	t := tc.totals()
	genS, openS, simS := t["graph.gen"].secs, t["trace.open"].secs, t["sim.sampled_run"].secs
	r.set("graph.gen_s", genS)
	r.set("graph.transpose_s", t["graph.transpose"].secs)
	r.set("graph.edges", edges)
	r.set("trace.stream_drain_s", t["trace.stream_drain"].secs)
	r.set("trace.events", totalEvents)
	r.set("trace.instructions", traceInstrs)
	r.set("sim.sampled_run_s", simS)
	r.set("sim.sampled_frac", ratio(measured, instrs))
	r.set("sim.ns_per_event", 1e9*ratio(simS, totalEvents))
	r.set("cpu.instructions", instrs)
	r.set("cpu.sim_cycles", cycles)
	r.set("memsys.accesses", accesses)
	counters.setCounters(r)
	r.table = []layerRow{
		{"graph", edges, genS},
		{"trace", t["trace.open"].ops, openS},
		{"sim", totalEvents, simS},
	}
	path, err := tc.write(cfg.spanDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	r.notef("spans: %d recorded, written to %s", len(tc.spans), path)
	return nil
}
