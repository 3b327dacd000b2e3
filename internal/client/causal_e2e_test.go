package client_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/workload"
)

// TestConcurrentWritersKeepSiblings is the tentpole behavior end to end:
// two clients write the same key with contexts that do not include each
// other's write — neither update may be silently dropped. A later write
// whose context covers both collapses the siblings.
func TestConcurrentWritersKeepSiblings(t *testing.T) {
	c := testCluster(t, 3, 41)
	clA, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	clB, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("causal", "t", "race")

	// Both writers hold the same (empty) causal context: a true race.
	if err := clA.WriteLatestCtx(ctx, key, []byte("from-a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := clB.WriteLatestCtx(ctx, key, []byte("from-b"), nil); err != nil {
		t.Fatal(err)
	}

	sib, err := clA.ReadSiblings(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(sib.Values) != 2 {
		t.Fatalf("concurrent write dropped: siblings = %+v", sib.Values)
	}
	seen := map[string]bool{}
	for _, v := range sib.Values {
		seen[string(v.Data)] = true
	}
	if !seen["from-a"] || !seen["from-b"] {
		t.Fatalf("sibling payloads = %v", seen)
	}
	// The default read still returns one deterministic winner.
	if _, _, err := clA.ReadLatest(ctx, key); err != nil {
		t.Fatal(err)
	}

	// Read-modify-write with the merged context collapses the siblings.
	if err := clA.WriteLatestCtx(ctx, key, []byte("merged"), sib.Context); err != nil {
		t.Fatal(err)
	}
	after, err := clB.ReadSiblings(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Values) != 1 || string(after.Values[0].Data) != "merged" {
		t.Fatalf("context write did not supersede both siblings: %+v", after.Values)
	}
}

// TestCausalRMWLosesNoAckedUpdate: four writers read-modify-write token
// sets on 48 Zipf(1.1) keys, so they collide often. Each reads the
// siblings, merges their tokens, adds its own and writes the set back under
// the read's context. An auditor then reads every key: each token the
// cluster acknowledged must be present, because a write concurrent with
// another is kept as a sibling rather than silently overwritten.
func TestCausalRMWLosesNoAckedUpdate(t *testing.T) {
	const writers, opsPerWriter, keys = 4, 100, 48
	c := testCluster(t, 3, 43)
	ctx := context.Background()

	var (
		mu    sync.Mutex
		acked = map[kv.Key][]string{}
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(workload.Spec{
			Keys:    keys,
			Dist:    workload.Zipf,
			Seed:    int64(w) * 101,
			Dataset: "rmw",
		})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				key := gen.NextKey()
				sib, err := cl.ReadSiblings(ctx, key)
				if err != nil {
					t.Errorf("writer %d: read %s: %v", w, key, err)
					return
				}
				set := tokenUnion(sib)
				token := fmt.Sprintf("w%d-%03d", w, i)
				set[token] = true
				if err := cl.WriteLatestCtx(ctx, key, encodeTokens(set), sib.Context); err != nil {
					t.Errorf("writer %d: write %s: %v", w, key, err)
					return
				}
				mu.Lock()
				acked[key] = append(acked[key], token)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	auditor, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	total, dropped := 0, 0
	for key, tokens := range acked {
		sib, err := auditor.ReadSiblings(ctx, key)
		if err != nil {
			t.Fatalf("audit %s: %v", key, err)
		}
		present := tokenUnion(sib)
		for _, tok := range tokens {
			total++
			if !present[tok] {
				dropped++
				t.Errorf("%s: acked token %s lost", key, tok)
			}
		}
	}
	if total != writers*opsPerWriter {
		t.Fatalf("acked %d updates, want %d", total, writers*opsPerWriter)
	}
	t.Logf("%d acked updates on %d keys, %d dropped", total, len(acked), dropped)
}

// tokenUnion merges the comma-separated token sets of every sibling.
func tokenUnion(sib client.Siblings) map[string]bool {
	set := map[string]bool{}
	for _, v := range sib.Values {
		for _, tok := range strings.Split(string(v.Data), ",") {
			if tok != "" {
				set[tok] = true
			}
		}
	}
	return set
}

func encodeTokens(set map[string]bool) []byte {
	toks := make([]string, 0, len(set))
	for tok := range set {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	return []byte(strings.Join(toks, ","))
}

// TestBlindWritesCarryProgramOrder: sequential context-free WriteLatest
// calls must not pile up as siblings — the coordinator stamps each blind
// write with the causal state it has already accepted.
func TestBlindWritesCarryProgramOrder(t *testing.T) {
	c := testCluster(t, 3, 42)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("causal", "t", "seq")
	for i, val := range []string{"v1", "v2", "v3"} {
		if err := cl.WriteLatest(ctx, key, []byte(val)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	sib, err := cl.ReadSiblings(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(sib.Values) != 1 || string(sib.Values[0].Data) != "v3" {
		t.Fatalf("sequential blind writes left siblings: %+v", sib.Values)
	}
}

// TestDeleteCtxSupersedesSiblings: a delete carrying the read context
// retires every sibling it observed.
func TestDeleteCtxSupersedesSiblings(t *testing.T) {
	c := testCluster(t, 3, 43)
	clA, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	clB, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("causal", "t", "del")
	if err := clA.WriteLatestCtx(ctx, key, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := clB.WriteLatestCtx(ctx, key, []byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	sib, err := clA.ReadSiblings(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(sib.Values) != 2 {
		t.Fatalf("setup: want 2 siblings, got %+v", sib.Values)
	}
	if err := clA.DeleteCtx(ctx, key, sib.Context); err != nil {
		t.Fatal(err)
	}
	if _, _, err := clB.ReadLatest(ctx, key); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("read after contextual delete = %v, want ErrNotFound", err)
	}
}

// TestDisableDVVMixedClients: a legacy client (no causal fields on the
// wire) and a DVV client interoperate on the same key — old frames still
// decode, and the timestamp bridge orders legacy writes against dotted
// ones.
func TestDisableDVVMixedClients(t *testing.T) {
	c := testCluster(t, 3, 44)
	modern, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := client.New(client.Config{
		Servers:    c.NodeAddrs,
		Caller:     c.Net.Endpoint("legacy-client"),
		Source:     "legacy-client",
		DisableDVV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("causal", "t", "mixed")

	if err := legacy.WriteLatest(ctx, key, []byte("old-era")); err != nil {
		t.Fatal(err)
	}
	val, _, err := modern.ReadLatest(ctx, key)
	if err != nil || string(val) != "old-era" {
		t.Fatalf("modern read of legacy write = %q, %v", val, err)
	}
	if err := modern.WriteLatest(ctx, key, []byte("new-era")); err != nil {
		t.Fatal(err)
	}
	val, _, err = legacy.ReadLatest(ctx, key)
	if err != nil || string(val) != "new-era" {
		t.Fatalf("legacy read of dotted write = %q, %v", val, err)
	}
	// The legacy client keeps writing; its dotless newer-timestamp write
	// must win reads (per-source legacy rule), not be shadowed.
	if err := legacy.WriteLatest(ctx, key, []byte("old-era-2")); err != nil {
		t.Fatal(err)
	}
	val, _, err = modern.ReadLatest(ctx, key)
	if err != nil || string(val) != "old-era-2" {
		t.Fatalf("read after mixed-era writes = %q, %v", val, err)
	}
}
