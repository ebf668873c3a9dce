package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"droplet/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the index of the enclosing span (-1
// for none); Req groups the spans of one operation.
type span struct {
	Name       string
	Start, End float64 // seconds since the tracer's epoch
	Parent     int
	Req        int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(traced bool) *tracer {
	if !traced {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// add records a span that ran from start to end and returns its index.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.epoch).Seconds(),
		End:    end.Sub(t.epoch).Seconds(),
		Parent: parent,
		Req:    req,
	})
	return len(t.spans) - 1
}

// spanTotal is the number of spans of one name and their summed length.
type spanTotal struct {
	ops  float64
	secs float64
}

// totals sums the recorded spans by name. The traced runs derive every
// per-layer time and the layer table from these sums.
func (t *tracer) totals() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		st := out[s.Name]
		st.ops++
		st.secs += s.End - s.Start
		out[s.Name] = st
	}
	return out
}

// write stores the spans under dir as tab-separated lines (name, start
// and end in microseconds since the epoch, parent, request id): a
// serve-mix run records about a million spans.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "name\tstart_us\tend_us\tparent\treq\n")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%d\t%d\n", s.Name, 1e6*s.Start, 1e6*s.End, s.Parent, s.Req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// quantile returns the nearest-rank q-quantile of sorted xs and the
// number of samples above that rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// latencySummary sets latency_p50_ms and latency_tail_ms from per-operation
// wall times in seconds. The tail percentile is fixed per workload, chosen
// so it has well over ten samples beyond it at the workload's usual
// operation count on a 2-CPU host.
func latencySummary(r *report, secs []float64, tailQ float64, what string) {
	sorted := append([]float64(nil), secs...)
	sort.Float64s(sorted)
	p50, _ := quantile(sorted, 0.5)
	tail, beyond := quantile(sorted, tailQ)
	r.set("latency_p50_ms", 1e3*p50)
	r.set("latency_tail_ms", 1e3*tail)
	label := fmt.Sprintf("p%g", 100*tailQ)
	r.notef("latency_tail_ms is %s of %d %s (%d samples beyond it)", label, len(sorted), what, beyond)
	if beyond < 10 {
		r.notef("WARNING: fewer than 10 samples beyond %s; run longer for a trustworthy tail", label)
	}
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostCounters reads cumulative heap allocation and GC cycle counts.
func hostCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// phase measures the host resources a timed phase uses.
type phase struct {
	wall       time.Time
	cpu        float64
	alloc, gcs uint64
}

// startPhase collects the garbage set-up left behind, so every timed
// phase starts from the same heap, and starts measuring.
func startPhase() phase {
	runtime.GC()
	p := phase{wall: time.Now(), cpu: cpuSeconds()}
	p.alloc, p.gcs = hostCounters()
	return p
}

// finish sets cpu_s, peak_rss_mib and the host.* counters and returns
// the phase's wall time in seconds. The last operation started before
// the deadline may end after it, so the phase lasts a little longer than
// --seconds by an amount that varies run to run; cpu_s is the CPU time
// the process used, scaled to a phase of exactly --seconds.
func (p phase) finish(r *report, end time.Time, seconds float64) float64 {
	wall := end.Sub(p.wall).Seconds()
	r.set("cpu_s", (cpuSeconds()-p.cpu)*seconds/wall)
	r.set("peak_rss_mib", peakRSSMiB())
	alloc, gcs := hostCounters()
	r.set("host.alloc_mib", float64(alloc-p.alloc)/(1<<20))
	r.set("host.gc_cycles", float64(gcs-p.gcs))
	return wall
}

// graphShape is the size of one graph the benchmark generated from a
// seed of its own, in the shape of a registered dataset.
type graphShape struct {
	dataset  string
	weighted bool
	vertices int
	edges    int64
}

// checkShapes checks each seeded graph against the registered dataset
// it stands in for: the benchmark builds its graphs with its own seeds,
// so it repeats the registry's generator parameters, and this check
// fails when the registry's shapes change and the copies do not. The
// vertex counts must be equal and the edge counts within 2% (the seed
// changes which duplicate edges collapse).
func checkShapes(r *report, sc workload.Scale, shapes []graphShape) error {
	type key struct {
		dataset  string
		weighted bool
	}
	ref := make(map[key]graphShape)
	for _, s := range shapes {
		k := key{s.dataset, s.weighted}
		want, ok := ref[k]
		if !ok {
			d, err := workload.DatasetByName(s.dataset)
			if err != nil {
				return err
			}
			g, err := d.Build(sc, s.weighted)
			if err != nil {
				return fmt.Errorf("registered %s: %w", s.dataset, err)
			}
			want = graphShape{vertices: g.NumVertices(), edges: g.NumEdges()}
			ref[k] = want
		}
		r.check(s.vertices == want.vertices && math.Abs(float64(s.edges-want.edges)) <= 0.02*float64(want.edges),
			"seeded %s graph has %d vertices and %d edges; the registered %s dataset has %d and %d",
			s.dataset, s.vertices, s.edges, sc, want.vertices, want.edges)
	}
	return nil
}

// medianRates returns the event and operation rates of `workers` busy
// workers that run every operation kind once, each at the median of its
// measured durations: workers × Σ events ÷ Σ medians and workers × kinds
// ÷ Σ medians. events[k] is the size of one operation of kind k and
// secs[k] its durations. The median keeps a burst of host noise during
// one repetition out of the rate, and counting each kind once keeps the
// mix the same whichever order the seed chose.
func medianRates(workers int, events []float64, secs [][]float64) (eventRate, opRate float64) {
	var ev, kinds, total float64
	for k, ds := range secs {
		if len(ds) == 0 {
			continue
		}
		ev += events[k]
		kinds++
		total += median(ds)
	}
	if total == 0 {
		return 0, 0
	}
	return float64(workers) * ev / total, float64(workers) * kinds / total
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// deriveSeed derives the i-th independent seed from the workload seed.
func deriveSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// newRand returns a deterministic generator for stream i of the seed.
func newRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, deriveSeed(seed, i)))
}

// digest hashes a sequence of JSON-encodable simulated results, so a
// perf-only change can be shown to leave them identical.
func digest(items []any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// runPool runs fn on `workers` goroutines over the job indices next
// hands out, until next reports no more work, and returns the results in
// completion order. fn must not write state shared with other jobs.
func runPool[T any](workers int, next func() (int, bool), fn func(job int) T) []T {
	out := make(chan T)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go poolWorker(&wg, next, fn, out)
	}
	go closeWhenDone(&wg, out)
	var res []T
	for v := range out {
		res = append(res, v)
	}
	return res
}

// upTo hands out the job indices 0..n-1, once each.
func upTo(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

func poolWorker[T any](wg *sync.WaitGroup, next func() (int, bool), fn func(int) T, out chan<- T) {
	defer wg.Done()
	for {
		i, ok := next()
		if !ok {
			return
		}
		out <- fn(i)
	}
}

func closeWhenDone[T any](wg *sync.WaitGroup, out chan<- T) {
	wg.Wait()
	close(out)
}
