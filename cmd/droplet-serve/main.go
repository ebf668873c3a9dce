// Command droplet-serve runs the simulation service: a JSON HTTP API
// over the experiment scheduler with a canonical-hash result cache.
//
// Usage:
//
//	droplet-serve -addr :8080 -scale quick -jobs 4
//
// Endpoints:
//
//	POST /v1/simulate        run (or fetch the cached result of) one canonical request
//	GET  /v1/results/{hash}  fetch a completed result by canonical hash
//	GET  /v1/stream/{hash}   stream the epoch-telemetry JSONL replay of a completed hash
//	GET  /healthz            liveness probe
//	GET  /metrics            JSON counters
//
// The process exits cleanly on SIGINT/SIGTERM: in-flight requests get a
// grace period, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"droplet/internal/cache"
	"droplet/internal/exp"
	"droplet/internal/serve"
	"droplet/internal/workload"
)

// A client gets readHeaderTimeout to send its request headers, and an
// idle keep-alive connection is closed after idleTimeout, so stalled or
// abandoned connections cannot pin server resources. There is no read or
// write timeout: a cache miss may simulate for minutes, and a read
// deadline would cancel the request context mid-simulation.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		scale   = flag.String("scale", "quick", "workload scale served by this instance: quick, full, or huge")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (also bounds live traces)")
		repl    = flag.String("replacement", "lru", "default LLC replacement policy for the suite machine")
		grace   = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight requests")
		verbose = flag.Bool("v", false, "log one line per executed simulation")
	)
	flag.Parse()

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-serve:", err)
		os.Exit(1)
	}
	pol, err := cache.ParseReplacement(*repl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-serve:", err)
		os.Exit(1)
	}

	suite := exp.NewSuite(sc)
	suite.Jobs = *jobs
	suite.Replacement = pol
	if *verbose {
		suite.Progress = func(line string) { fmt.Fprintln(os.Stderr, "droplet-serve:", line) }
	}

	srv := &http.Server{
		Handler:           serve.New(suite),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "droplet-serve:", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so harnesses using port 0 can
	// discover the endpoint.
	fmt.Printf("droplet-serve: listening on http://%s (scale=%v jobs=%d)\n", ln.Addr(), sc, *jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "droplet-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("droplet-serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "droplet-serve: shutdown:", err)
			os.Exit(1)
		}
	}
}
