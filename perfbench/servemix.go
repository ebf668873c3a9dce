package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"droplet/internal/exp"
	"droplet/internal/serve"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
	"droplet/internal/workload"
)

// serveClients is the number of closed-loop clients, each with its own
// connection: the benchmark host has 2 CPUs.
const serveClients = 2

// serveSetups is how many times a serve-mix run repeats its set-up.
const serveSetups = 3

// servePool is the request pool: quick-scale canonical requests over the
// registered fixed-seed datasets. Every run simulates all of them once.
// Each names a different benchmark, so with the suite's 2 trace slots
// every miss generates its trace and evicts another: the misses cost the
// same whichever order the seed draws them in.
var servePool = []simreq.Request{
	{Benchmark: "PR-kron", Prefetcher: "nopf"},
	{Benchmark: "PR-urand", Prefetcher: "stream"},
	{Benchmark: "BFS-road", Prefetcher: "droplet"},
	{Benchmark: "BFS-kron", Prefetcher: "nopf"},
	{Benchmark: "CC-urand", Prefetcher: "nopf"},
	{Benchmark: "CC-kron", Prefetcher: "pickle"},
	{Benchmark: "SSSP-orkut", Prefetcher: "nopf"},
	{Benchmark: "BC-livejournal", Prefetcher: "nopf"},
}

// streamCandidates are the pool entries /v1/stream is asked for: nopf
// requests of similar simulation cost, so the seed's choice among them
// does not change how much work a run does.
var streamCandidates = []int{0, 3, 4}

// poolEntry is a pool request in the forms the benchmark sends it.
type poolEntry struct {
	q     simreq.Request
	body  []byte // canonical JSON, the POST body
	hash  string
	bench workload.Benchmark
}

func poolEntries() ([]poolEntry, error) {
	out := make([]poolEntry, len(servePool))
	for i, q := range servePool {
		n, err := q.Normalize()
		if err != nil {
			return nil, err
		}
		body, err := n.Canonical()
		if err != nil {
			return nil, err
		}
		hash, err := n.Hash()
		if err != nil {
			return nil, err
		}
		rv, err := n.Resolve()
		if err != nil {
			return nil, err
		}
		out[i] = poolEntry{q: n, body: body, hash: hash, bench: rv.Benchmark}
	}
	return out, nil
}

// liveServer is a serve.Server over a fresh exp.Suite, listening on a
// loopback port. ran counts the simulations the suite completed, from
// its Progress lines: the server's own simulations_total cannot be used
// for that (see the held check in serveMix).
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
	ran  atomic.Int64
}

func startServer() (*liveServer, error) {
	suite := exp.NewSuite(workload.Quick)
	suite.Jobs = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{srv: serve.New(suite), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	suite.Progress = s.progress
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go serveOn(s.hs, ln, s.done)
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

// progress counts the suite's "ran <label>" lines, one per completed
// simulation.
func (s *liveServer) progress(line string) {
	if strings.HasPrefix(line, "ran ") {
		s.ran.Add(1)
	}
}

func serveOn(hs *http.Server, ln net.Listener, done chan<- error) { done <- hs.Serve(ln) }

// stop shuts the server down and waits until it has stopped serving.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serveSetup builds the graphs of the pool's registered datasets and
// starts a server. The first repetition builds them through the
// workload graph cache the server reads; later ones rebuild them with
// the same generators, bypassing the cache, and are only timed.
func serveSetup(pool []poolEntry, prime bool) (*liveServer, float64, float64, error) {
	t0 := time.Now()
	var genS float64
	seen := make(map[string]bool)
	for _, e := range pool {
		key := fmt.Sprintf("%s/%v", e.bench.Dataset, e.bench.Algo.Weighted())
		if seen[key] {
			continue
		}
		seen[key] = true
		t := time.Now()
		if prime {
			if _, err := workload.Graph(e.bench.Dataset, workload.Quick, e.bench.Algo.Weighted()); err != nil {
				return nil, 0, 0, err
			}
		} else {
			d, err := workload.DatasetByName(e.bench.Dataset)
			if err != nil {
				return nil, 0, 0, err
			}
			if _, err := d.Build(workload.Quick, e.bench.Algo.Weighted()); err != nil {
				return nil, 0, 0, err
			}
		}
		genS += time.Since(t).Seconds()
	}
	s, err := startServer()
	if err != nil {
		return nil, 0, 0, err
	}
	return s, time.Since(t0).Seconds(), genS, nil
}

// Request kinds of the mix.
const (
	kindSimulate = iota
	kindResults
	kindStream
)

// mixEvent is a scheduled stream request.
type mixEvent struct {
	due  time.Duration
	pool int
}

// mixSchedule picks the run's streams: two seeded candidates at 65% and
// 75% of the run, then a repeat of the first (a stream-cache hit) at 85%.
func mixSchedule(rng *rand.Rand, run time.Duration) []mixEvent {
	c := rng.Perm(len(streamCandidates))
	at := func(f float64) time.Duration { return time.Duration(f * float64(run)) }
	return []mixEvent{
		{at(0.65), streamCandidates[c[0]]},
		{at(0.75), streamCandidates[c[1]]},
		{at(0.85), streamCandidates[c[0]]},
	}
}

// mixRec is one completed request. It is kept small: a run records
// hundreds of thousands, and the benchmark's own memory shows in
// peak_rss_mib.
type mixRec struct {
	start, dur int64 // ns since the run started; ns
	bytes      int32
	status     int16 // 0 when the request failed without a response
	kind, pool uint8
	miss       bool // X-Cache: miss
}

func (m mixRec) seconds() float64 { return float64(m.dur) / 1e9 }

func (m mixRec) ok() bool { return m.status >= 200 && m.status <= 299 }

// mixState is shared by the clients: the stream schedule, which pool
// hashes have a stored result, and the first body seen for each hash.
type mixState struct {
	pool    []poolEntry
	start   time.Time
	opening int // the pool entry both clients send first, at once

	mu         sync.Mutex
	events     []mixEvent
	done       []bool
	firstBody  map[int][]byte
	streamBody map[int][]byte
	failures   []string
}

// next picks a client's next request: a due stream whose target has a
// result, else a pool entry drawn uniformly, sent as GET /v1/results one
// time in five once its result exists and as POST /v1/simulate otherwise.
// A draw of a hash with no result yet is a miss, or a concurrent
// duplicate when the other client is already waiting on it.
func (st *mixState) next(rng *rand.Rand) (kind, pool int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Since(st.start)
	for i, ev := range st.events {
		if ev.due > now {
			break
		}
		if st.done[ev.pool] {
			st.events = append(st.events[:i], st.events[i+1:]...)
			return kindStream, ev.pool
		}
	}
	p := rng.IntN(len(st.pool))
	if st.done[p] && rng.IntN(5) == 0 {
		return kindResults, p
	}
	return kindSimulate, p
}

// allDone reports whether every pool hash has a stored result.
func (st *mixState) allDone() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, d := range st.done {
		if !d {
			return false
		}
	}
	return true
}

// observe checks a response body against the first body seen for its
// hash and marks the hash completed.
func (st *mixState) observe(rec *mixRec, body []byte, cache string, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fail := func(format string, args ...any) {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
	p := int(rec.pool)
	label := st.pool[p].bench.String() + "/" + st.pool[p].q.Prefetcher
	if err != nil {
		fail("%s: %v", label, err)
		return
	}
	if !rec.ok() {
		fail("%s: status %d: %s", label, rec.status, strings.TrimSpace(string(body)))
		return
	}
	switch rec.kind {
	case kindSimulate, kindResults:
		if prev, ok := st.firstBody[p]; ok {
			if !bytes.Equal(prev, body) {
				fail("%s: %s body (X-Cache %s) differs from the first body for its hash", label, kindName(int(rec.kind)), cache)
			}
		} else if rec.kind == kindSimulate {
			st.firstBody[p] = body
		} else {
			fail("%s: /v1/results answered before any /v1/simulate body", label)
		}
		st.done[p] = true
	case kindStream:
		if _, n, err := telemetry.ValidateJSONL(bytes.NewReader(body)); err != nil || n == 0 {
			fail("%s: stream body is not valid telemetry JSONL (%d records): %v", label, n, err)
		}
		if prev, ok := st.streamBody[p]; ok && !bytes.Equal(prev, body) {
			fail("%s: repeated stream body differs", label)
		} else if !ok {
			st.streamBody[p] = body
		}
	}
}

func kindName(k int) string {
	switch k {
	case kindResults:
		return "results"
	case kindStream:
		return "stream"
	default:
		return "simulate"
	}
}

// mixRequest builds the HTTP request for one mix entry.
func mixRequest(ctx context.Context, base string, e poolEntry, kind int) (*http.Request, error) {
	switch kind {
	case kindResults:
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/results/"+e.hash, nil)
	case kindStream:
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream/"+e.hash, nil)
	default:
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/simulate", bytes.NewReader(e.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
}

// reconnectEvery is how long a client keeps one connection. Loopback
// throughput on a 2-CPU host settles into a per-connection regime that
// can differ by 20% between connections; reconnecting every second
// averages a run over many of them instead of one.
const reconnectEvery = time.Second

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// mixClient is one closed-loop client with one connection at a time: it
// sends its next request only after the previous response has been
// read, until the deadline has passed and every pool hash has a result
// (or a minute past the deadline, when one never gets one).
func mixClient(st *mixState, base string, deadline time.Time, rng *rand.Rand) []mixRec {
	recs := make([]mixRec, 0, 1<<16)
	client, connected := newClient(), time.Now()
	defer func() { client.CloseIdleConnections() }()
	giveUp := deadline.Add(time.Minute)
	for now := time.Now(); now.Before(deadline) || (!st.allDone() && now.Before(giveUp)); now = time.Now() {
		if time.Since(connected) >= reconnectEvery {
			client.CloseIdleConnections()
			client, connected = newClient(), time.Now()
		}
		kind, pool := kindSimulate, st.opening
		if len(recs) > 0 {
			kind, pool = st.next(rng)
		}
		rec := mixRec{kind: uint8(kind), pool: uint8(pool)}
		var body []byte
		var cache string
		t0 := time.Now()
		req, err := mixRequest(context.Background(), base, st.pool[pool], kind)
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				rec.status, cache = int16(resp.StatusCode), resp.Header.Get("X-Cache")
			}
		}
		t1 := time.Now()
		rec.start, rec.dur = t0.Sub(st.start).Nanoseconds(), t1.Sub(t0).Nanoseconds()
		rec.bytes, rec.miss = int32(len(body)), cache == "miss"
		st.observe(&rec, body, cache, err)
		recs = append(recs, rec)
	}
	return recs
}

// runServeMix is the serve-mix workload: an in-process serve.Server over
// an exp.Suite with Jobs=2 on a loopback listener, driven by two
// closed-loop clients for --seconds. The seed selects the opening
// request, each client's sequence of draws and the streamed hashes.
func runServeMix(cfg config, r *report) error {
	pool, err := poolEntries()
	if err != nil {
		return err
	}
	var setups []float64
	var live *liveServer
	var genS float64
	for i := 0; i < serveSetups; i++ {
		runtime.GC() // each repetition starts from a collected heap
		prime := i == serveSetups-1
		s, secs, gen, err := serveSetup(pool, prime)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		if prime {
			live, genS = s, gen
		} else if err := s.stop(); err != nil {
			return err
		}
	}
	err = serveMix(cfg, r, pool, live, setups, genS)
	if serr := live.stop(); err == nil {
		err = serr
	}
	return err
}

func serveMix(cfg config, r *report, pool []poolEntry, s *liveServer, setups []float64, genS float64) error {
	r.set("setup_s", median(setups))
	run := time.Duration(cfg.seconds * float64(time.Second))
	rng := newRand(cfg.seed, 400)
	st := &mixState{
		pool:       pool,
		opening:    rng.IntN(len(pool)),
		events:     mixSchedule(rng, run),
		done:       make([]bool, len(pool)),
		firstBody:  make(map[int][]byte),
		streamBody: make(map[int][]byte),
	}

	ph := startPhase()
	st.start = ph.wall
	deadline := ph.wall.Add(run)
	perClient := runPool(serveClients, upTo(serveClients), func(id int) []mixRec {
		return mixClient(st, s.url, deadline, newRand(cfg.seed, 500+id))
	})
	var recs []mixRec
	var last int64
	for _, cr := range perClient {
		for _, rec := range cr {
			recs = append(recs, rec)
			last = max(last, rec.start+rec.dur)
		}
	}
	wall := ph.finish(r, ph.wall.Add(time.Duration(last)), cfg.seconds)
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })

	r.attempted = len(recs)
	for _, f := range st.failures {
		r.check(false, "%s", f)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	metrics, err := fetchMetrics(client, s.url)
	if err != nil {
		return err
	}
	// A hash's flight lasts from its first miss request to the end of its
	// last miss response (concurrent duplicates share one flight).
	type flight struct{ start, end int64 }
	flights := make(map[int]flight)
	var misses, simulates int
	for _, rec := range recs {
		if rec.kind != kindSimulate || !rec.ok() {
			continue
		}
		simulates++
		if !rec.miss {
			continue
		}
		misses++
		f, ok := flights[int(rec.pool)]
		if !ok {
			f.start = rec.start
		}
		f.end = max(f.end, rec.start+rec.dur)
		flights[int(rec.pool)] = f
	}
	ran := s.ran.Load()
	r.check(len(flights) == len(pool), "%d of %d pool hashes were simulated", len(flights), len(pool))
	r.check(ran == int64(len(flights)), "the suite ran %d simulations for %d distinct hashes", ran, len(flights))
	overcount := metrics["simulations_total"] - int64(len(flights))
	r.held(overcount == 0, "/metrics simulations_total = %d for %d distinct hashes: the server adds one per waiter of a collapsed flight",
		metrics["simulations_total"], len(flights))
	d, err := digest(bodiesInPoolOrder(st.firstBody, len(pool)))
	if err != nil {
		return err
	}
	r.notef("digest serve-mix: %s (%d requests: %d simulate, %d miss responses for %d hashes; %d streams)",
		d, len(recs), simulates, misses, len(flights), countKind(recs, kindStream))

	if !cfg.traced {
		events, err := poolEvents(pool)
		if err != nil {
			return err
		}
		var simulated, flightS float64
		for p := range pool {
			if f, ok := flights[p]; ok {
				simulated += float64(events[p])
				flightS += float64(f.end-f.start) / 1e9
			}
		}
		secs := make([]float64, len(recs))
		for i, rec := range recs {
			secs[i] = rec.seconds()
		}
		r.set("req_per_s", float64(len(recs))/wall)
		r.set("events_per_s", ratio(simulated, flightS))
		latencySummary(r, secs, 0.99, "requests")
		return nil
	}
	r.set("serve.simulations_overcount", float64(overcount))
	r.set("exp.simulations", float64(ran))
	return traceServeMix(cfg, r, pool, st.start, recs, metrics, genS, misses, len(flights))
}

func countKind(recs []mixRec, kind int) int {
	n := 0
	for _, rec := range recs {
		if int(rec.kind) == kind {
			n++
		}
	}
	return n
}

func bodiesInPoolOrder(bodies map[int][]byte, n int) []any {
	items := make([]any, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, string(bodies[i]))
	}
	return items
}

func fetchMetrics(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// poolEvents returns the trace length of each pool request, read from
// the traces the registered datasets produce: the server's responses do
// not carry it.
func poolEvents(pool []poolEntry) ([]int64, error) {
	byBench := make(map[workload.Benchmark]int64)
	out := make([]int64, len(pool))
	for i, e := range pool {
		n, ok := byBench[e.bench]
		if !ok {
			tr, err := workload.GenerateTrace(e.bench, workload.Quick, e.q.Cores)
			if err != nil {
				return nil, err
			}
			n = tr.Events()
			byBench[e.bench] = n
		}
		out[i] = n
	}
	return out, nil
}

// simreqCost times simreq.Decode and Request.Hash over the canonical
// bodies of qs.
func simreqCost(r *report, qs []simreq.Request) error {
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		b, err := q.Canonical()
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	const rounds = 200
	t0 := time.Now()
	for k := 0; k < rounds; k++ {
		for _, b := range bodies {
			if _, err := simreq.Decode(bytes.NewReader(b)); err != nil {
				return err
			}
		}
	}
	t1 := time.Now()
	for k := 0; k < rounds; k++ {
		for _, q := range qs {
			if _, err := q.Hash(); err != nil {
				return err
			}
		}
	}
	ops := float64(rounds * len(qs))
	r.set("simreq.decode_us", 1e6*t1.Sub(t0).Seconds()/ops)
	r.set("simreq.hash_us", 1e6*time.Since(t1).Seconds()/ops)
	return nil
}

// traceServeMix derives the per-layer numbers of serve-mix: the recorded
// request sequence is replayed through Server.ServeHTTP in-process on a
// fresh server (transport is the network run minus this), the pool is
// simulated through exp.Suite.SimResult, and one streamed request is
// simulated with and without the telemetry Collector.
func traceServeMix(cfg config, r *report, pool []poolEntry, start time.Time, recs []mixRec, metrics map[string]int64, genS float64, misses, distinct int) error {
	tc := newTracer(true)
	tc.epoch = start
	var hitNet, missNet []float64
	var streamBytes float64
	for i, rec := range recs {
		t0 := start.Add(time.Duration(rec.start))
		tc.add("serve.request", -1, i, t0, t0.Add(time.Duration(rec.dur)))
		switch {
		case rec.kind == kindStream:
			streamBytes += float64(rec.bytes)
		case rec.miss:
			missNet = append(missNet, rec.seconds())
		default:
			hitNet = append(hitNet, rec.seconds())
		}
	}
	r.set("graph.gen_s", genS)
	r.set("telemetry.stream_bytes", streamBytes)
	r.set("serve.hit_p50_us", 1e6*median(hitNet))
	r.set("serve.miss_p50_ms", 1e3*median(missNet))
	r.set("serve.hit_ratio", ratio(float64(metrics["cache_hits_total"]), float64(metrics["requests_total"])))
	r.set("exp.dedup_ratio", ratio(float64(distinct), float64(misses)))

	// In-process replay, serially in the network run's start order. Each
	// handler span is named by what the request exercised: a hit is
	// serve/simreq work, a miss is mostly exp and the simulator, a stream
	// is a simulation with the telemetry Collector attached.
	suite := exp.NewSuite(workload.Quick)
	suite.Jobs = 2
	srv := serve.New(suite)
	for i, rec := range recs {
		req, err := mixRequest(context.Background(), "http://bench", pool[rec.pool], int(rec.kind))
		if err != nil {
			return err
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		t1 := time.Now()
		name := "serve.handler_hit"
		switch {
		case rec.kind == kindStream:
			name = "serve.handler_stream"
		case w.Header().Get("X-Cache") == "miss":
			name = "serve.handler_miss"
		}
		tc.add(name, -1, i, t0, t1)
		r.check(w.Code >= 200 && w.Code <= 299, "in-process replay: status %d for %s", w.Code, kindName(int(rec.kind)))
	}

	// The exp layer on its own: every pool hash through SimResult.
	suite2 := exp.NewSuite(workload.Quick)
	suite2.Jobs = 2
	for i, e := range pool {
		t0 := time.Now()
		if _, err := suite2.SimResult(context.Background(), e.q); err != nil {
			return err
		}
		tc.add("exp.sim_result", -1, i, t0, time.Now())
	}

	if err := telemetryOverhead(tc, pool[streamCandidates[0]]); err != nil {
		return err
	}

	qs := make([]simreq.Request, len(pool))
	for i, e := range pool {
		qs[i] = e.q
	}
	if err := simreqCost(r, qs); err != nil {
		return err
	}

	t := tc.totals()
	hit, miss, stream := t["serve.handler_hit"], t["serve.handler_miss"], t["serve.handler_stream"]
	handlerS := hit.secs + miss.secs + stream.secs
	netS := t["serve.request"].secs
	r.set("serve.handler_s", handlerS)
	r.set("serve.transport_s", netS-handlerS)
	r.set("exp.sim_result_s", t["exp.sim_result"].secs)
	r.set("telemetry.overhead_s", t["telemetry.collect"].secs-t["sim.run"].secs)
	r.table = []layerRow{
		{"transport", t["serve.request"].ops, netS - handlerS},
		{"serve", hit.ops, hit.secs},
		{"exp+sim", miss.ops, miss.secs},
		{"telemetry", stream.ops, stream.secs},
	}
	r.notef("in-process replay of %d requests: %.4f s in handlers; network run: %.4f s of request latency",
		len(recs), handlerS, netS)
	path, err := tc.write(cfg.spanDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	r.notef("spans: %d recorded, written to %s", len(tc.spans), path)
	return nil
}

// telemetryOverhead simulates one pool request with the telemetry
// Collector attached (span telemetry.collect) and without (span sim.run),
// on the same trace, alternating three times each, and records only the
// fastest run of each as a span.
func telemetryOverhead(tc *tracer, e poolEntry) error {
	tr, err := workload.GenerateTrace(e.bench, workload.Quick, e.q.Cores)
	if err != nil {
		return err
	}
	mcfg, _, err := machineFor(e.q)
	if err != nil {
		return err
	}
	collected := func() error {
		col := telemetry.NewCollector(telemetry.NewJSONLSink(io.Discard), telemetry.RunMeta{
			Benchmark: e.bench.String(), Kernel: e.bench.Algo.String(), EpochCycles: sim.DefaultEpochCycles,
		})
		_, err := sim.Simulate(context.Background(), tr, mcfg, sim.Options{Observer: col})
		return err
	}
	plain := func() error { _, err := sim.Run(tr, mcfg); return err }
	var best [2]quickSpan
	for k := 0; k < 6; k++ {
		name, run := "sim.run", plain
		if k%2 == 1 {
			name, run = "telemetry.collect", collected
		}
		sp, err := timedSpan(name, run)
		if err != nil {
			return err
		}
		if k < 2 || sp.seconds() < best[k%2].seconds() {
			best[k%2] = sp
		}
	}
	for _, sp := range best {
		tc.add(sp.name, -1, 0, sp.t0, sp.t1)
	}
	return nil
}
