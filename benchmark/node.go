package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"sedna/internal/coord"
	"sedna/internal/core"
	"sedna/internal/persist"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// childSpec is what the driver tells a re-exec'd cluster process through its
// command line. Role "coord" builds what cmd/sedna-coord builds; role "node"
// builds what cmd/sedna-server -persist wal -wal-sync always builds, every
// other flag at its default.
type childSpec struct {
	role      string
	addr      string
	coordAddr string
	dataDir   string
	bootstrap bool
	seams     bool // install the tracing decorators (recording starts off)
}

// childMain runs one cluster process until its stdin closes. The protocol on
// stdin/stdout is line based: the child prints "READY" once it serves, then
// answers "ok" or "err <reason>" to each of "trace on", "trace off" and
// "dump <file>". Exiting on stdin EOF means no child outlives its driver,
// however the driver dies.
func childMain(spec childSpec) error {
	var rec *recorder
	if spec.seams {
		rec = newRecorder(spec.addr)
	}
	switch spec.role {
	case "coord":
		tcp := transport.NewTCP(spec.addr)
		var tr transport.Transport = tcp
		if rec != nil {
			tr = tracedTransport{tcp, rec}
		}
		srv := coord.NewServer(coord.ServerConfig{ID: 0, Members: []string{spec.addr}, Transport: tr})
		if err := srv.Start(); err != nil {
			return fmt.Errorf("coord %s: %w", spec.addr, err)
		}
	case "node":
		tcp := transport.NewTCPStaged(spec.addr, transport.StageConfig{})
		cfg := core.Config{
			Node:         ring.NodeID(spec.addr),
			Transport:    tcp,
			CoordServers: []string{spec.coordAddr},
			MemoryLimit:  64 << 20,
			Persist: persist.Config{
				Dir:      spec.dataDir,
				Strategy: persist.WriteAhead,
				WALSync:  wal.SyncAlways,
			},
			Bootstrap: spec.bootstrap,
		}
		if rec != nil {
			cfg.Transport = tracedTransport{tcp, rec}
			cfg.Persist.FS = tracedFS{vfs.OS, rec}
		}
		srv, err := core.NewServer(cfg)
		if err != nil {
			return fmt.Errorf("node %s: %w", spec.addr, err)
		}
		if err := srv.Start(); err != nil {
			return fmt.Errorf("node %s: start: %w", spec.addr, err)
		}
	default:
		return fmt.Errorf("unknown role %q", spec.role)
	}
	fmt.Println("READY")

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		reply := "ok"
		if err := childCommand(rec, in.Text()); err != nil {
			reply = "err " + err.Error()
		}
		fmt.Println(reply)
	}
	// No graceful Leave: it would migrate every vnode to the survivors
	// while the driver is tearing them down too.
	return nil
}

func childCommand(rec *recorder, line string) error {
	verb, arg, _ := strings.Cut(line, " ")
	if rec == nil {
		return fmt.Errorf("%q needs a traced cluster", line)
	}
	switch {
	case verb == "trace" && arg == "on":
		rec.on.Store(true)
	case verb == "trace" && arg == "off":
		rec.on.Store(false)
	case verb == "dump" && arg != "":
		return rec.dump(arg)
	default:
		return fmt.Errorf("unknown command %q", line)
	}
	return nil
}
