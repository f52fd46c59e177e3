// Command tacoserve runs the multi-tenant spreadsheet service: many
// concurrent workbook sessions, each backed by a TACO compressed formula
// graph, behind a JSON HTTP API.
//
// Usage:
//
//	tacoserve [-addr :8737] [-port-file PATH] [-shards 16] [-max-resident 0]
//	          [-spill-dir DIR] [-durable] [-fsync interval] [-fsync-interval 50ms]
//	          [-recalc-workers 0] [-recalc-chunk 0]
//	          [-debug-addr ADDR] [-access-log]
//	          [-standby -primary-url URL] [-repl-interval 100ms]
//
// Endpoints:
//
//	POST   /sessions                   create (blank or {"scenario":...,"rows":...})
//	POST   /sessions/xlsx              create from an uploaded .xlsx body
//	GET    /sessions                   list sessions
//	GET    /sessions/{id}              session stats (rev, cells, graph sizes)
//	DELETE /sessions/{id}              drop a session
//	POST   /sessions/{id}/fork         copy-on-write fork of the session (durable stores)
//	POST   /sessions/{id}/edits        batched edits {"edits":[{"cell":"B2","value":3},...]}
//	GET    /sessions/{id}/cells        ?at=B2 or ?range=A1:C10
//	GET    /sessions/{id}/dependents   ?of=A1:A3
//	GET    /sessions/{id}/precedents   ?of=B2
//	GET    /stats                      store-wide stats
//	GET    /metrics                    Prometheus text-format telemetry (see TELEMETRY.md)
//	GET    /replication/sessions       replication manifest (for standbys)
//	GET    /replication/sessions/{id}/snapshot   engine snapshot + X-Snapshot-Rev
//	GET    /replication/sessions/{id}/journal    journal tail ?from=REV (journal wire format)
//	POST   /admin/promote              promote a standby to primary
//
// With -max-resident N, at most N sessions stay in memory; colder ones are
// spilled to -spill-dir as engine snapshots and restored lazily when touched.
//
// With -durable, every accepted edit batch is journaled to -spill-dir before
// the response commits and a persistent session registry makes restarts warm:
// a relaunched tacoserve pointed at the same -spill-dir rediscovers every
// session and replays journal tails on top of snapshots at first touch.
// -fsync picks the journal fsync policy (always|interval|never) and
// -fsync-interval the background flush period; see README.md "Durability".
//
// With -standby -primary-url URL, the server boots as a warm standby: the
// store is read-only (writes answer 503 with Retry-After), a replicator
// bootstraps every session from the primary's snapshots and tails its
// journals every -repl-interval, reads carry X-Replication-Lag-Rev/-Ms
// headers, and POST /admin/promote fences shipping and makes it the new
// primary. See README.md "Replication & degradation".
//
// The TACO_FAULTS environment variable installs a fault-injection plan on
// the file layer (internal/faultfs) for durability drills, e.g.
// TACO_FAULTS="write:.tacoj:enospc:count=1".
//
// With -debug-addr, a second listener serves net/http/pprof under /debug/pprof/
// on its own mux — profiling stays off the public API surface and can bind a
// loopback-only address.
//
// An -addr ending in :0 binds a kernel-chosen free port — the right choice
// for scripts and CI jobs, which otherwise collide on shared runners. The
// actual address is logged, and -port-file writes it (host:port, one line)
// atomically to a path scripts can poll instead of scraping logs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"taco/internal/faultfs"
	"taco/internal/server"
)

func main() {
	// Serving default: trade heap headroom for fewer GC cycles. The session
	// store's pools keep the steady-state allocation rate low, but spill
	// churn still allocates; a 300% target roughly halves GC CPU on
	// eviction-heavy workloads. GOGC in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	addr := flag.String("addr", ":8737", "listen address (use :0 for a kernel-chosen free port)")
	portFile := flag.String("port-file", "", "write the bound host:port to this file once listening (for scripts using -addr :0)")
	shards := flag.Int("shards", 16, "session store shard count")
	maxResident := flag.Int("max-resident", 0, "max in-memory sessions (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "directory for evicted session snapshots (required with -max-resident and -durable)")
	durable := flag.Bool("durable", false, "journal edits and persist the session registry in -spill-dir; restarts recover every session")
	fsyncPolicy := flag.String("fsync", "interval", "journal fsync policy with -durable: always|interval|never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "background journal flush period with -fsync interval (0 = default 50ms)")
	recalcWorkers := flag.Int("recalc-workers", 0, "background drain workers pulling sessions off the recalc queue (0 = CPUs, -1 = disable background draining)")
	recalcChunk := flag.Int("recalc-chunk", 0, "evaluations per session-lock hold while draining (0 = default 256); readers interleave between holds")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof (empty = disabled); bind loopback, e.g. 127.0.0.1:6060")
	accessLog := flag.Bool("access-log", false, "log one structured line per request to stderr")
	standby := flag.Bool("standby", false, "run as a warm standby: read-only, tailing -primary-url's journals; POST /admin/promote to take over")
	primaryURL := flag.String("primary-url", "", "primary's base URL with -standby (e.g. http://host:8737)")
	replInterval := flag.Duration("repl-interval", 0, "journal-shipping poll period with -standby (0 = default 100ms)")
	flag.Parse()

	if *standby && *primaryURL == "" {
		fmt.Fprintln(os.Stderr, "tacoserve: -standby requires -primary-url")
		os.Exit(2)
	}
	if installed, err := faultfs.InstallFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "tacoserve: %s: %v\n", faultfs.EnvVar, err)
		os.Exit(2)
	} else if installed {
		log.Printf("tacoserve: fault injection active (%s)", faultfs.EnvVar)
	}

	var al *slog.Logger
	if *accessLog {
		al = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srvOpts := server.Options{
		Store: server.StoreOptions{
			Shards:        *shards,
			MaxResident:   *maxResident,
			SpillDir:      *spillDir,
			RecalcWorkers: *recalcWorkers,
			RecalcChunk:   *recalcChunk,
			Durable:       *durable,
			FsyncPolicy:   *fsyncPolicy,
			FsyncInterval: *fsyncInterval,
		},
		AccessLog: al,
	}
	if *standby {
		srvOpts.Standby = server.StandbyOptions{PrimaryURL: *primaryURL, Interval: *replInterval}
	}
	srv, err := server.NewServer(srvOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tacoserve: %v\n", err)
		os.Exit(2)
	}

	if *debugAddr != "" {
		// pprof on its own mux and listener: the default http.ServeMux picks
		// up the net/http/pprof handlers via its init, but mounting them
		// explicitly on a private mux keeps them off the API listener even if
		// something else ever serves DefaultServeMux.
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("tacoserve: pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dm); err != nil {
				log.Printf("tacoserve: pprof listener: %v", err)
			}
		}()
	}

	// Bind before serving: with -addr :0 the kernel picks the port, and the
	// bound address — not the requested one — is what gets logged and written
	// to -port-file. The write is atomic (tmp + rename) so a polling script
	// never reads a half-written line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tacoserve: %v\n", err)
		os.Exit(2)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		tmp := *portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("tacoserve: port file: %v", err)
		}
		if err := os.Rename(tmp, *portFile); err != nil {
			log.Fatalf("tacoserve: port file: %v", err)
		}
	}

	hs := &http.Server{Handler: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("tacoserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// Timeout or listener error: in-flight requests were cut off.
			log.Printf("tacoserve: shutdown: %v", err)
		}
		srv.Close() // stop background recalculation workers
	}()

	// Log the effective recalculation configuration (defaults resolved by the
	// store), so a deployment's drain behaviour is readable from its logs.
	eff := srv.Store().Options()
	durability := "off"
	if eff.Durable {
		durability = fmt.Sprintf("fsync=%s interval=%s recovered=%d",
			*fsyncPolicy, eff.FsyncInterval, srv.Store().Stats().RecoveredSessions)
	}
	role := "primary"
	if *standby {
		role = "standby of " + *primaryURL
	}
	log.Printf("tacoserve: listening on %s as %s (shards=%d max-resident=%d recalc-workers=%d recalc-chunk=%d durable=%s)",
		bound, role, eff.Shards, eff.MaxResident, eff.RecalcWorkers,
		eff.RecalcChunk, durability)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("tacoserve: %v", err)
	}
	<-done
}
