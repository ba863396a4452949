// Command serve runs the contention-resolution simulator as an HTTP/JSON
// service (internal/serve) over one Engine and one content-addressed result
// store: POST /v1/run, /v1/sweep (NDJSON stream), /v1/aggregate, plus
// GET /v1/stats and /metrics for observability.
//
// Usage:
//
//	serve -addr :8080 -store /var/lib/contend -max-sims 8 -per-client 4
//	serve -pprof -span-log spans.ndjson    # profiling endpoints + span log
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests get -drain to finish, then their contexts are cancelled (which
// stops any still-streaming sweeps at the next cell boundary) and the store
// is synced and closed.
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
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so one slow client cannot hold a connection open forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		storeDir  = flag.String("store", "", "result store directory (empty = serve uncached)")
		workers   = flag.Int("workers", 0, "per-request sweep parallelism (0 = GOMAXPROCS)")
		maxSims   = flag.Int("max-sims", 0, "global in-flight simulation budget (0 = unlimited)")
		perClient = flag.Int("per-client", 0, "concurrent requests per client (0 = unlimited)")
		maxCells  = flag.Int("max-cells", 0, "max scenario×seed cells per request (0 = unlimited)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown grace period")
		pprofOn   = flag.Bool("pprof", false, "mount /debug/pprof profiling endpoints")
		spanLog   = flag.String("span-log", "", "append one NDJSON lifecycle span per cell to this file")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers: *workers, MaxSims: *maxSims, PerClient: *perClient, MaxCells: *maxCells,
		Pprof: *pprofOn,
	}
	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sink := obs.NewJSONL(f)
		// Close surfaces the first span write error too: a span log that
		// silently dropped records mid-run is worse than a loud exit line.
		defer func() {
			if cerr := sink.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "serve: span log:", cerr)
			}
		}()
		cfg.Spans = sink
	}
	if *storeDir != "" {
		st, err := repro.OpenStore(*storeDir)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "serve: closing store:", cerr)
			}
		}()
		cfg.Store = st
	}
	srv := serve.New(cfg)

	// SIGINT/SIGTERM start the drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Requests inherit baseCtx, not ctx: cancelling ctx must start the
	// drain, not instantly kill in-flight work. baseCtx is cancelled only
	// after the grace period, which aborts any still-streaming sweeps.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "serve: draining (up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	// Past the grace period, cancel every surviving request's context so
	// streaming sweeps stop simulating before we close the store.
	cancelBase()
	if serveErr := <-errc; err == nil {
		err = serveErr
	}
	return err
}
