// Command benchmark is the standing benchmark of this repository: a real
// multi-process Sedna cluster (1 coordination member, 3 data nodes with
// -persist wal -wal-sync always) on loopback TCP, driven by four workloads,
// reporting end-to-end metrics untraced and a per-layer budget traced.
// README.md in this directory says what every name means.
//
//	go run ./benchmark -workload write_quorum -seed 42 -seconds 15 -trace 0
//	go run ./benchmark -workload all -seed 42 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// logf reports progress; it does nothing unless -v is given.
var logf = func(format string, args ...any) {}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: write_quorum, read_zipf, batch_16, feed_open, or all")
		seed     = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "length of the measured window")
		trace    = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both: one after the other")
		out      = flag.String("out", "", "result file to append the runs to")
		tmp      = flag.String("tmp", ".bench_build/tmp", "directory for the clusters' data directories")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark contract, read by -compare for the bounds")
		verbose  = flag.Bool("v", false, "log the steps of a run to standard error")

		role      = flag.String("role", "", "internal: run as a cluster process (coord or node)")
		addr      = flag.String("addr", "", "internal: address to serve")
		coordAddr = flag.String("coord", "", "internal: coordination member address")
		dataDir   = flag.String("data", "", "internal: data directory")
		bootstrap = flag.Bool("bootstrap", false, "internal: initialise the layout")
		seams     = flag.Bool("seams", false, "internal: install the tracing decorators")
	)
	flag.Parse()
	if *verbose {
		began := time.Now()
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "%7.3fs "+format+"\n", append([]any{time.Since(began).Seconds()}, args...)...)
		}
	}

	if *role != "" {
		err := childMain(childSpec{role: *role, addr: *addr, coordAddr: *coordAddr, dataDir: *dataDir, bootstrap: *bootstrap, seams: *seams})
		exit(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			exit(fmt.Errorf("usage: -compare a.json b.json"))
		}
		exit(compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1)))
	}

	// Children die with the driver whatever happens (their stdin closes),
	// but on a signal the data directories should go too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		closeLiveClusters()
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", s)
		os.Exit(130)
	}()
	defer closeLiveClusters() // also runs when main panics

	specs := workloads
	if *name != "all" {
		spec := findWorkload(*name)
		if spec == nil {
			exit(fmt.Errorf("unknown -workload %q", *name))
		}
		specs = []*workloadSpec{spec}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		exit(fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace))
	}
	if *seconds < 1 {
		exit(fmt.Errorf("-seconds must be at least 1"))
	}

	correct := true
	var last *runResult
	for _, spec := range specs {
		for _, traced := range modes {
			res, err := runWorkload(spec, *seed, *seconds, traced, *tmp)
			if err != nil {
				closeLiveClusters()
				exit(fmt.Errorf("%s: %w", spec.name, err))
			}
			res.print(os.Stdout)
			if *out != "" {
				if err := appendRun(*out, res); err != nil {
					exit(err)
				}
			}
			correct = correct && res.Correct
			last = res
		}
	}
	// The contract's last line; with several runs it is the last run's.
	fmt.Println(last.contractLine())
	if !correct {
		closeLiveClusters()
		os.Exit(1)
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
