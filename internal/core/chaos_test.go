package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/testcluster"
)

// TestChaosRollingFailures drives continuous writes while nodes are killed
// and restarted one at a time, then audits the durability contract: every
// write the cluster ACKNOWLEDGED must be readable with its final value
// afterwards (writes that errored may or may not exist — the client is told
// to retry those).
func TestChaosRollingFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	c := newCluster(t, testcluster.ClusterConfig{
		Nodes:          5,
		Seed:           77,
		SessionTimeout: 300 * time.Millisecond,
	})
	ctx := context.Background()

	// acked records the last acknowledged value per key; ackedN counts every
	// acknowledged write, so the chaos schedule can wait for real writer
	// progress instead of sleeping a fixed interval.
	var mu sync.Mutex
	acked := map[kv.Key]string{}
	ackedN := 0
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return ackedN
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		cl := newClient(t, c)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				key := kv.Join("chaos", "t", fmt.Sprintf("w%d-k%03d", w, i%150))
				val := fmt.Sprintf("w%d-i%06d", w, i)
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				err := cl.WriteLatest(wctx, key, []byte(val))
				cancel()
				if err == nil {
					mu.Lock()
					acked[key] = val
					ackedN++
					mu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// Rolling failures: kill and restart nodes 1..3 in sequence. Never
	// touch more than one node at a time, so the quorum always survives.
	// All waits poll observable state (writer progress, ring membership)
	// rather than sleeping fixed intervals: under -race with every package
	// testing in parallel the scheduler can starve the background loops for
	// tens of seconds, so wall-clock pauses both flake and over-wait.
	for round := 0; round < 3; round++ {
		victim := 1 + round
		// Let the writers make real progress against the current membership
		// before the next failure.
		progressFrom := ackedCount()
		waitUntil(t, 40*time.Second, fmt.Sprintf("round %d: writer progress", round), func() bool {
			return ackedCount() >= progressFrom+50
		})
		c.KillNode(victim)
		// Eviction must be visible to EVERY survivor, not just node 0 —
		// a laggard's stale ring would race the restart below.
		waitUntil(t, 40*time.Second, fmt.Sprintf("round %d: victim eviction", round), func() bool {
			for i, s := range c.Servers {
				if i == victim || s == nil {
					continue
				}
				r := s.Ring()
				if r == nil || len(r.Nodes()) != 4 {
					return false
				}
			}
			return true
		})
		if _, err := c.RestartNode(victim); err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
		if err := c.WaitConverged(5, 90*time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	writers.Wait()

	// Audit: every acknowledged key must hold a value at least as new as
	// the acked one. A later un-acked write by the same writer may have
	// landed (its error was a timeout, not a failure), so we accept any
	// value from the same writer with a HIGHER sequence too.
	auditor := newClient(t, c)
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged during the soak")
	}
	var missing, stale int
	for key, want := range acked {
		var got string
		deadline := time.Now().Add(10 * time.Second)
		for {
			val, _, err := auditor.ReadLatest(ctx, key)
			if err == nil {
				got = string(val)
				break
			}
			if time.Now().After(deadline) {
				missing++
				t.Errorf("acked key %s unreadable: %v", key, err)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if got == "" {
			continue
		}
		// Values are "w<writer>-i<seq>"; same writer, seq >= acked seq.
		var wWant, iWant, wGot, iGot int
		fmt.Sscanf(want, "w%d-i%d", &wWant, &iWant)
		fmt.Sscanf(got, "w%d-i%d", &wGot, &iGot)
		if wGot != wWant || iGot < iWant {
			stale++
			t.Errorf("key %s: acked %q but read %q", key, want, got)
		}
	}
	if missing > 0 || stale > 0 {
		t.Fatalf("durability audit failed: %d missing, %d stale of %d acked keys", missing, stale, len(acked))
	}
	t.Logf("audited %d acked keys across 3 kill/restart rounds", len(acked))
}
