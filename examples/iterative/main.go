// Iterative reproduces the paper's trigger-loop programming pattern
// (Fig. 4): multiple triggers push each other forward to implement an
// iterative computation, a stop-condition filter terminates the loop at a
// fixed point, and flow control keeps the cycle from flooding the cluster
// (§IV-B's ripple effect).
//
// The computation is single-source shortest hops over a small directed
// graph, iterated entirely through Sedna triggers:
//
//   - graph/dist/<node> holds the current best hop-count for each node;
//   - the "relax" trigger monitors graph/dist: whenever a node's distance
//     improves, it emits candidate distances for that node's neighbours;
//   - a candidate write only fires the trigger again if it actually lowers
//     the stored distance — the Filter is the stop condition, so the loop
//     terminates exactly when distances reach the fixed point.
//
// Run it with:
//
//	go run ./examples/iterative
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"sedna"
)

// The demo graph (directed edges).
var edges = map[string][]string{
	"a": {"b", "c"},
	"b": {"d"},
	"c": {"d", "e"},
	"d": {"f"},
	"e": {"f", "g"},
	"f": {"h"},
	"g": {"h"},
	"h": {},
	// An unreachable island: must stay at infinity.
	"z": {"a"},
}

// Expected hop counts from "a".
var want = map[string]int{
	"a": 0, "b": 1, "c": 1, "d": 2, "e": 2, "f": 3, "g": 3, "h": 4,
}

func main() {
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run boots a three-node simulated cluster, registers the two triggers of
// the Fig. 4 circle, seeds distance(a) = 0 and waits for the fixed point,
// printing its progress to out. It returns the hop counts read back once
// the loop has stopped.
func run(out io.Writer) (map[string]int, error) {
	net := sedna.NewSimNetwork(sedna.GigabitLAN(), 21)

	ensemble := sedna.NewCoordServer(sedna.CoordConfig{
		ID: 0, Members: []string{"coord-0"}, Transport: net.Endpoint("coord-0"),
	})
	if err := ensemble.Start(); err != nil {
		return nil, err
	}
	defer ensemble.Close()

	nodeAddrs := []string{"node-0", "node-1", "node-2"}
	var nodes []*sedna.Server
	for i, addr := range nodeAddrs {
		srv, err := sedna.NewServer(sedna.ServerConfig{
			Node:            sedna.NodeID(addr),
			Transport:       net.Endpoint(addr),
			CoordServers:    []string{"coord-0"},
			CoordCaller:     net.Endpoint(addr + "-coord"),
			Bootstrap:       i == 0,
			VNodes:          48,
			ScanEvery:       2 * time.Millisecond,
			TriggerInterval: 10 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		defer srv.Close()
		nodes = append(nodes, srv)
	}
	if err := waitForMembers(nodes, len(nodes)); err != nil {
		return nil, err
	}

	// --- The relax trigger, on every node. The job's Deadline is the
	// paper's "timeout measurement to avoid infinite execution".
	for _, srv := range nodes {
		_, err := srv.Trigger().Register(sedna.Job{
			Name:     "relax",
			Hooks:    []sedna.Hook{sedna.TableHook("graph", "dist")},
			Deadline: time.Minute,
			// Stop condition: only react when the distance improved. The
			// filter compares the OLD and NEW values — exactly why the
			// paper gives assert all four arguments (§IV-D).
			Filter: sedna.FilterFunc(func(old, new sedna.Snapshot) bool {
				if !new.Exists {
					return false
				}
				newDist := atoi(string(new.Value))
				if !old.Exists {
					return true
				}
				return newDist < atoi(string(old.Value))
			}),
			Action: sedna.ActionFunc(func(ctx context.Context, key sedna.Key, values [][]byte, res *sedna.Result) error {
				node := key.Name()
				d := atoi(string(values[0]))
				for _, nb := range edges[node] {
					// Candidate distance for each neighbour. The write is
					// unconditional; the neighbour's own filter decides
					// whether it is an improvement worth propagating.
					res.Emit(sedna.JoinKey("graph", "cand", nb), []byte(strconv.Itoa(d+1)))
				}
				return nil
			}),
		})
		if err != nil {
			return nil, err
		}

		// The "min" trigger folds candidates into graph/dist, keeping the
		// minimum — the second trigger of the Fig. 4 circle.
		nodeCli, err := sedna.NewClient(sedna.ClientConfig{
			Servers: []string{string(srv.Node())},
			Caller:  net.Endpoint(string(srv.Node()) + "-min"),
			Source:  "min@" + string(srv.Node()),
		})
		if err != nil {
			return nil, err
		}
		_, err = srv.Trigger().Register(sedna.Job{
			Name:     "min-fold",
			Hooks:    []sedna.Hook{sedna.TableHook("graph", "cand")},
			Deadline: time.Minute,
			Action: sedna.ActionFunc(func(ctx context.Context, key sedna.Key, values [][]byte, res *sedna.Result) error {
				node := key.Name()
				cand := atoi(string(values[0]))
				cur, _, err := nodeCli.ReadLatest(ctx, sedna.JoinKey("graph", "dist", node))
				if err == nil && atoi(string(cur)) <= cand {
					return nil // not an improvement; the loop dies out here
				}
				res.Emit(sedna.JoinKey("graph", "dist", node), []byte(strconv.Itoa(cand)))
				return nil
			}),
		})
		if err != nil {
			return nil, err
		}
	}

	// --- Seed the computation: distance(a) = 0.
	cli, err := sedna.NewClient(sedna.ClientConfig{
		Servers: nodeAddrs, Caller: net.Endpoint("seeder"), Source: "seeder",
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fmt.Fprintln(out, "seeding distance(a) = 0; the trigger loop does the rest")
	start := time.Now()
	if err := cli.WriteLatest(ctx, sedna.JoinKey("graph", "dist", "a"), []byte("0")); err != nil {
		return nil, err
	}

	// --- Wait for the fixed point.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for node, exp := range want {
			val, _, err := cli.ReadLatest(ctx, sedna.JoinKey("graph", "dist", node))
			if err != nil || atoi(string(val)) != exp {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			dump(ctx, out, cli)
			return nil, errors.New("iteration never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintf(out, "converged in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Show that the loop actually stopped: firings settle once converged.
	before := totalFired(nodes)
	time.Sleep(300 * time.Millisecond)
	after := totalFired(nodes)
	dist := dump(ctx, out, cli)

	// The unreachable node never got a distance.
	if _, _, err := cli.ReadLatest(ctx, sedna.JoinKey("graph", "dist", "z")); err == nil {
		return nil, errors.New("unreachable node acquired a distance")
	}
	fmt.Fprintln(out, "\nunreachable node z correctly stayed at infinity")
	fmt.Fprintf(out, "trigger firings settled: %d -> %d in 300ms after convergence\n", before, after)
	if after-before > 4 {
		return nil, fmt.Errorf("loop still running after the fixed point (%d extra firings)", after-before)
	}
	fmt.Fprintln(out, "iterative trigger demo done")
	return dist, nil
}

// dump prints the hop count of every node of want and returns the ones
// that read back.
func dump(ctx context.Context, out io.Writer, cli *sedna.Client) map[string]int {
	fmt.Fprintln(out, "hop counts from a:")
	var names []string
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	dist := map[string]int{}
	for _, n := range names {
		val, _, err := cli.ReadLatest(ctx, sedna.JoinKey("graph", "dist", n))
		if err != nil {
			fmt.Fprintf(out, "  %s: ?\n", n)
			continue
		}
		fmt.Fprintf(out, "  %s: %s\n", n, val)
		dist[n] = atoi(string(val))
	}
	return dist
}

func totalFired(nodes []*sedna.Server) uint64 {
	var n uint64
	for _, s := range nodes {
		n += s.Stats().Trigger.Fired
	}
	return n
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 1 << 30
	}
	return n
}

func waitForMembers(nodes []*sedna.Server, n int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, s := range nodes {
			r := s.Ring()
			if r == nil || len(r.Nodes()) != n {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
