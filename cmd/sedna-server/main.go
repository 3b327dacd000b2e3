// Command sedna-server runs one Sedna data node ("real node").
//
// Usage:
//
//	sedna-server -addr 127.0.0.1:7101 -coord 127.0.0.1:7000 -bootstrap
//	sedna-server -addr 127.0.0.1:7102 -coord 127.0.0.1:7000
//
// The first node of a fresh cluster passes -bootstrap to initialise the
// coordination layout (the virtual-node count is fixed at that moment and
// cannot change without a cluster restart, §III-D).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sedna"
	"sedna/internal/opshttp"
	"sedna/internal/persist"
	"sedna/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7101", "address to serve and advertise")
	coordList := flag.String("coord", "127.0.0.1:7000", "comma-separated coordination addresses")
	bootstrap := flag.Bool("bootstrap", false, "initialise the coordination layout if missing")
	passive := flag.Bool("passive", false, "join without claiming vnodes; acquire data later via 'coordctl join'")
	vnodes := flag.Int("vnodes", 0, "virtual node count for -bootstrap (default 128)")
	memMB := flag.Int64("mem", 64, "local store memory limit in MiB")
	persistMode := flag.String("persist", "none", "persistency strategy: none|periodic|wal (wal logs every write and checkpoints the log every -flush-every)")
	dataDir := flag.String("data", "", "persistence directory (required unless -persist none)")
	walSync := flag.String("wal-sync", "interval", "WAL sync policy: never|interval|always (always = group commit: every acked write is fsync-covered)")
	walGroupWindow := flag.Duration("wal-group-window", 0, "group-commit dwell before fsync under -wal-sync always (0 = natural batching)")
	flushEvery := flag.Duration("flush-every", 0, "snapshot period: periodic's flush, wal's checkpoint (default 30s)")
	opsAddr := flag.String("ops-addr", "", "ops-plane HTTP listen address (/metrics, /healthz, /traces, pprof); empty disables")
	slowMS := flag.Int64("slow-ms", 0, "slow-op threshold in milliseconds (0 = default 250ms, negative disables)")
	tenantRule := flag.String("tenant-rule", "", "per-tenant attribution rule: dataset|table|prefix:N; empty disables")
	transportMode := flag.String("transport-mode", "staged", "server pipeline: staged (bounded event-loop stages) or spawn (goroutine per request)")
	transportReaders := flag.Int("transport-readers", 0, "event-loop reader shards (0 = min(GOMAXPROCS, 8))")
	transportWorkers := flag.Int("transport-workers", 0, "handler worker-pool size (0 = max(64, 8*GOMAXPROCS))")
	transportQueue := flag.Int("transport-queue", 0, "dispatch queue depth before requests shed with busy frames (0 = 1024)")
	maxConns := flag.Int("max-conns", 0, "accepted connection cap; beyond it new connections are shed (0 = 65536)")
	verbose := flag.Bool("v", false, "verbose logging")
	flag.Parse()

	var strategy persist.Strategy
	switch *persistMode {
	case "none":
		strategy = sedna.PersistNone
	case "periodic":
		strategy = sedna.PersistPeriodic
	case "wal":
		strategy = sedna.PersistWriteAhead
	default:
		fmt.Fprintf(os.Stderr, "sedna-server: unknown -persist %q\n", *persistMode)
		os.Exit(2)
	}
	if strategy != sedna.PersistNone && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "sedna-server: -data required with persistence enabled")
		os.Exit(2)
	}
	var syncPolicy wal.SyncPolicy
	switch *walSync {
	case "never":
		syncPolicy = sedna.SyncNever
	case "interval":
		syncPolicy = sedna.SyncInterval
	case "always":
		syncPolicy = sedna.SyncAlways
	default:
		fmt.Fprintf(os.Stderr, "sedna-server: unknown -wal-sync %q\n", *walSync)
		os.Exit(2)
	}

	stage := sedna.TransportStageConfig{
		Readers:       *transportReaders,
		Workers:       *transportWorkers,
		DispatchDepth: *transportQueue,
		MaxConns:      *maxConns,
	}
	switch *transportMode {
	case "staged":
	case "spawn":
		stage.Spawn = true
	default:
		fmt.Fprintf(os.Stderr, "sedna-server: unknown -transport-mode %q\n", *transportMode)
		os.Exit(2)
	}

	cfg := sedna.ServerConfig{
		Node:         sedna.NodeID(*addr),
		Transport:    sedna.NewTCPTransportStaged(*addr, stage),
		CoordServers: strings.Split(*coordList, ","),
		MemoryLimit:  *memMB << 20,
		Persist: sedna.PersistConfig{
			Dir:            *dataDir,
			Strategy:       strategy,
			WALSync:        syncPolicy,
			WALGroupWindow: *walGroupWindow,
			FlushInterval:  *flushEvery,
		},
		Bootstrap:       *bootstrap,
		Passive:         *passive,
		VNodes:          *vnodes,
		SlowOpThreshold: time.Duration(*slowMS) * time.Millisecond,
		TenantRule:      *tenantRule,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv, err := sedna.NewServer(cfg)
	if err != nil {
		log.Fatalf("sedna-server: %v", err)
	}
	if err := srv.Start(); err != nil {
		log.Fatalf("sedna-server: start: %v", err)
	}
	if *opsAddr != "" {
		ops, err := opshttp.Start(srv.OpsConfig(*opsAddr))
		if err != nil {
			log.Fatalf("sedna-server: ops plane: %v", err)
		}
		defer ops.Close()
		log.Printf("sedna-server: ops plane on http://%s/metrics", ops.Addr())
	}
	log.Printf("sedna-server: node %s up (coord %s, persist %s)", *addr, *coordList, *persistMode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("sedna-server: leaving cluster")
	if err := srv.Leave(); err != nil {
		log.Printf("sedna-server: graceful leave failed (%v); closing", err)
		srv.Close()
	}
}
