// Command odrcd is the resident DRC service: an HTTP/JSON daemon that keeps
// loaded designs open as sessions (GDSII parse, hierarchy, geometry cache,
// and device-resident edge buffers all outlive a single check) and serves
// concurrent full-deck and single-rule checks at warm-cache cost.
//
// Usage:
//
//	odrcd [-addr :9144] [-max-inflight n] [-max-queue n] [-timeout d]
//	      [-max-timeout d] [-grace d] [-drain d] [-sched-workers n]
//	      [-tenant-weight name=w]...
//	      [-ready-file path] [-quiet]
//
// API (JSON bodies throughout; see internal/server):
//
//	POST   /v1/sessions                  load a design: {"id","design"|"gds","scale","mode","deck",...}
//	GET    /v1/sessions                  list loaded sessions
//	DELETE /v1/sessions/{id}             unload (closes once idle)
//	POST   /v1/sessions/{id}/check       run a check: {"rules":[ids],"timeout_ms":n,"dedup":bool}
//	POST   /v1/sessions/{id}/invalidate  drop resident geometry
//	GET    /v1/sessions/{id}/stats       traffic split, tenant, and scheduler weight
//	GET    /healthz                      liveness, session count, in-flight gauge
//	GET    /debug/goroutines             goroutine count (?stacks=1 for the dump)
//	GET    /debug/sched                  per-tenant fair-scheduler accounting
//
// Every check's fan-outs run on one shared tenant-fair worker set: sessions
// name their tenant at creation ({"tenant": ...}, default the session id),
// and -tenant-weight gives named tenants a larger stride share, so a light
// tenant's small checks stay responsive beside a saturating co-tenant
// (DESIGN.md §13) with byte-identical responses either way.
//
// Check responses are the engine's canonical report JSON — byte-identical
// to `odrc -canon` on the same design and deck — with request identity and
// timings in X-Odrc-* headers. Overload answers 429 + Retry-After; a check
// still running past deadline+grace is abandoned with 504; SIGTERM/SIGINT
// drains in-flight checks, then closes every session, releasing its
// device-resident buffers deterministically.
//
// -ready-file, written after the listener binds, holds the bound address
// (useful with -addr :0 in scripts and CI).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opendrc/internal/infra"
	"opendrc/internal/server"
)

func main() {
	os.Exit(run())
}

// parseTenantWeight splits a -tenant-weight "name=w" value.
func parseTenantWeight(v string) (string, int, error) {
	name, ws, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("want name=w, got %q", v)
	}
	w, err := strconv.Atoi(ws)
	if err != nil || w <= 0 {
		return "", 0, fmt.Errorf("weight in %q must be a positive integer", v)
	}
	return name, w, nil
}

func run() int {
	addr := flag.String("addr", ":9144", "listen address (use :0 with -ready-file for an ephemeral port)")
	maxInflight := flag.Int("max-inflight", 0, "admitted checks across all sessions; beyond it requests shed with 429 (0 = default 8)")
	maxQueue := flag.Int("max-queue", 0, "checks admitted per session, running plus queued (0 = default 4)")
	timeout := flag.Duration("timeout", 0, "default per-check deadline when the request names none (0 = default 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "clamp on request-supplied deadlines (0 = default 5m)")
	grace := flag.Duration("grace", 0, "watchdog grace past a check's deadline before abandoning it with 504 (0 = default 2s)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown budget for in-flight checks after SIGTERM")
	schedWorkers := flag.Int("sched-workers", 0, "shared cross-tenant worker set for check fan-outs (0 = GOMAXPROCS)")
	weights := map[string]int{}
	flag.Func("tenant-weight", "name=w: give tenant name stride weight w on the shared workers (repeatable; others get 1)", func(v string) error {
		name, w, err := parseTenantWeight(v)
		if err != nil {
			return err
		}
		weights[name] = w
		return nil
	})
	readyFile := flag.String("ready-file", "", "write the bound listen address to this file once serving")
	quiet := flag.Bool("quiet", false, "log warnings and errors only")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: odrcd [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	level := infra.LevelInfo
	if *quiet {
		level = infra.LevelWarn
	}
	log := infra.NewLogger(os.Stderr, level)

	// base outlives the shutdown signal on purpose: draining still needs a
	// live context to close sessions and release device buffers.
	base := context.Background()
	sigCtx, stop := signal.NotifyContext(base, syscall.SIGTERM, os.Interrupt)
	defer stop()

	srv := server.New(base, server.Config{
		MaxInFlight:        *maxInflight,
		MaxQueuePerSession: *maxQueue,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		WatchdogGrace:      *grace,
		SchedWorkers:       *schedWorkers,
		TenantWeights:      weights,
		Logger:             log,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odrcd:", err)
		return 1
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "odrcd:", err)
			return 1
		}
	}
	log.Infof("odrcd: serving on %s", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { //odrc:allow rawgo — the listener loop; main blocks on the signal
		serveErr <- hs.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "odrcd:", err)
		return 1
	case <-sigCtx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Infof("odrcd: draining (up to %v for in-flight checks)", *drain)
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(base, *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Warnf("odrcd: drain incomplete: %v", err)
	}
	n := srv.CloseAll(base)
	log.Infof("odrcd: closed %d sessions; bye", n)
	return 0
}
