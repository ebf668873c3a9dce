// Package serve exposes the experiment suite as a versioned JSON HTTP
// service — simulation as a service. The API speaks canonical
// simulation requests (package simreq): POST /v1/simulate runs (or
// returns the cached result of) one request, GET /v1/results/{hash}
// fetches a completed result by its canonical hash, and GET
// /v1/stream/{hash} replays the same simulation with the epoch
// telemetry observer attached, streaming JSONL as epochs retire.
//
// The server rides the suite's scheduler unchanged: concurrent
// requests for one canonical hash collapse onto a single simulation
// (per-key singleflight), trace memory stays bounded by Suite.Jobs, and
// a client disconnect cancels the underlying simulation once no other
// waiter wants its result. Result bodies are encoded exactly once and
// served verbatim afterwards, so repeated requests return byte-identical
// bytes — the cache-hit contract CI's service smoke job pins.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"droplet/internal/exp"
	"droplet/internal/sim"
	"droplet/internal/simreq"
	"droplet/internal/telemetry"
)

// maxStreamCache bounds the completed telemetry streams kept in memory.
// Streams are the big artifact (MBs per run, vs ~1 KB per result), so
// the cache is a small FIFO; evicted hashes just re-simulate.
const maxStreamCache = 32

// Metrics is the server's monotonic counter set. /metrics reports it
// together with the suite's count of executed simulations.
type Metrics struct {
	Requests     atomic.Int64
	CacheHits    atomic.Int64
	SimErrors    atomic.Int64
	BadRequests  atomic.Int64
	Streams      atomic.Int64
	StreamHits   atomic.Int64
	Cancellation atomic.Int64
}

// result is one completed simulation: the response body as served (the
// byte-identity contract) plus the canonical request, kept so
// /v1/stream can re-execute the same simulation.
type result struct {
	body []byte
	req  simreq.Request
}

// stream is one in-flight or completed telemetry replay.
type stream struct {
	done chan struct{}
	data []byte
	err  error
}

// Server is the HTTP facade over one exp.Suite.
type Server struct {
	suite *exp.Suite
	mux   *http.ServeMux

	mu          sync.Mutex
	results     map[string]*result
	streams     map[string]*stream
	streamOrder []string // FIFO of cached (completed) stream hashes

	metrics Metrics
}

// New wraps suite in a Server. The suite's Scale, Jobs, and policy
// fields keep their usual meaning; TelemetryDir should stay empty (the
// service streams telemetry per request instead).
func New(suite *exp.Suite) *Server {
	s := &Server{
		suite:   suite,
		mux:     http.NewServeMux(),
		results: make(map[string]*result),
		streams: make(map[string]*stream),
	}
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	s.mux.HandleFunc("GET /v1/stream/{hash}", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the routable handler (mountable under a prefix).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// MetricsSnapshot returns the current counter values (for tests).
func (s *Server) MetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"requests_total":      s.metrics.Requests.Load(),
		"cache_hits_total":    s.metrics.CacheHits.Load(),
		"simulations_total":   s.suite.Simulations(),
		"sim_errors_total":    s.metrics.SimErrors.Load(),
		"bad_requests_total":  s.metrics.BadRequests.Load(),
		"streams_total":       s.metrics.Streams.Load(),
		"stream_hits_total":   s.metrics.StreamHits.Load(),
		"cancellations_total": s.metrics.Cancellation.Load(),
	}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error  string             `json:"error"`
	Fields simreq.FieldErrors `json:"fields,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.metrics.BadRequests.Add(1)
	body := errorBody{Error: err.Error()}
	var fe simreq.FieldErrors
	if errors.As(err, &fe) {
		body.Fields = fe
	}
	writeJSON(w, http.StatusBadRequest, body)
}

// handleSimulate decodes one canonical request, executes it through the
// suite's singleflight scheduler, and serves the stored body. The first
// completion encodes the body; every later hit — concurrent or not —
// serves those exact bytes with X-Cache: hit.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	q, err := simreq.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if q.Variant != "" {
		s.badRequest(w, simreq.FieldErrors{{
			Field: "variant",
			Error: "named machine variants exist only inside experiment tables and cannot be served",
		}})
		return
	}
	hash, err := q.Hash()
	if err != nil {
		s.badRequest(w, err)
		return
	}

	if body, ok := s.cachedBody(hash); ok {
		s.metrics.CacheHits.Add(1)
		s.serveBody(w, body, "hit")
		return
	}

	res, err := s.suite.SimResult(r.Context(), q)
	if err != nil {
		if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
			// Client gone: nothing to write, nothing leaked — the
			// scheduler cancels the simulation when the last waiter
			// leaves.
			s.metrics.Cancellation.Add(1)
			return
		}
		s.metrics.SimErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	body, err := s.storeResult(hash, q, res)
	if err != nil {
		s.metrics.SimErrors.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.serveBody(w, body, "miss")
}

// cachedBody returns the stored response body for hash, if present.
func (s *Server) cachedBody(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.results[hash]; ok {
		return res.body, true
	}
	return nil, false
}

// storeResult encodes the response body for hash exactly once. When two
// waiters of one flight race here, the first stored body wins and both
// serve it, preserving byte identity.
func (s *Server) storeResult(hash string, q simreq.Request, res *sim.Result) ([]byte, error) {
	b, err := simreq.EncodeResult(q, res.Summarize())
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.results[hash]; ok {
		return prev.body, nil
	}
	s.results[hash] = &result{body: b, req: q}
	return b, nil
}

func (s *Server) serveBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Write(body)
}

// handleResult serves a previously completed result by hash.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	hash := r.PathValue("hash")
	body, ok := s.cachedBody(hash)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("serve: no result for hash %q (POST /v1/simulate first)", hash)})
		return
	}
	s.metrics.CacheHits.Add(1)
	s.serveBody(w, body, "hit")
}

// handleStream replays the simulation behind a completed hash with the
// epoch telemetry observer attached and streams the JSONL records as
// epochs retire. The observer is non-perturbing, so the replay's result
// matches the cached one bit for bit. Completed streams are cached (a
// bounded FIFO) and concurrent requests for one hash collapse onto a
// single replay: the first requester streams live, joiners get the
// buffered bytes on completion.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	s.metrics.Streams.Add(1)
	hash := r.PathValue("hash")
	s.mu.Lock()
	res, ok := s.results[hash]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("serve: no result for hash %q (POST /v1/simulate first)", hash)})
		return
	}
	if st, ok := s.streams[hash]; ok {
		s.mu.Unlock()
		<-st.done
		if st.err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.err.Error()})
			return
		}
		s.metrics.StreamHits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Cache", "hit")
		w.Write(st.data)
		return
	}
	st := &stream{done: make(chan struct{})}
	s.streams[hash] = st
	s.mu.Unlock()

	// First requester: run the replay, teeing each record to the live
	// response and to the buffer later joiners (and the cache) read.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", "miss")
	var buf bytes.Buffer
	flusher, _ := w.(http.Flusher)
	out := io.MultiWriter(&buf, w)
	sink := &flushSink{enc: json.NewEncoder(out), flusher: flusher}
	_, err := s.suite.SimTelemetry(r.Context(), res.req, sink)

	s.mu.Lock()
	st.data, st.err = buf.Bytes(), err
	if err != nil {
		// Failed (or client-cancelled) replays are not cached: drop the
		// stream entry so the next request retries.
		delete(s.streams, hash)
	} else {
		s.streamOrder = append(s.streamOrder, hash)
		if len(s.streamOrder) > maxStreamCache {
			evict := s.streamOrder[0]
			s.streamOrder = s.streamOrder[1:]
			delete(s.streams, evict)
		}
	}
	close(st.done)
	s.mu.Unlock()
}

// flushSink is a telemetry sink that encodes JSONL and flushes the HTTP
// response after every record, so clients observe epochs as they retire
// rather than at simulation end.
type flushSink struct {
	enc     *json.Encoder
	flusher http.Flusher
}

type metaLine struct {
	Meta *telemetry.RunMeta `json:"meta"`
}

func (s *flushSink) Begin(meta *telemetry.RunMeta) error {
	if err := s.enc.Encode(metaLine{Meta: meta}); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *flushSink) Emit(rec *telemetry.EpochRecord) error {
	if err := s.enc.Encode(rec); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *flushSink) End() error { s.flush(); return nil }

func (s *flushSink) flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
