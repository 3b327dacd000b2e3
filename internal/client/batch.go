package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/quorum"
	"sedna/internal/wire"
)

// Multi-key batch path: MGet/MSet group keys by the primary owner under the
// leased ring and ship one coordinator frame per primary, so a 16-key batch
// on a 3-node cluster costs ~3 RPCs instead of 16. Results are always
// per-key — a frame that fails falls back to the single-key path for its
// keys rather than failing the whole batch.

// MGetResult is one key's outcome in an MGet batch.
type MGetResult struct {
	Key   kv.Key
	Value []byte
	TS    kv.Timestamp
	// Err is nil on a hit, core.ErrNotFound on a clean miss, and a
	// quorum/transport error when the key could not be read.
	Err error
}

// MSetItem is one key of an MSet batch.
type MSetItem struct {
	Key   kv.Key
	Value []byte
}

// MGet reads many keys with read_latest semantics in one round of batched
// RPCs. The returned slice aligns with keys; every entry carries either a
// value or a per-key error (misses are core.ErrNotFound, exactly as
// ReadLatest reports them).
func (c *Client) MGet(ctx context.Context, keys []kv.Key) []MGetResult {
	out := make([]MGetResult, len(keys))
	for i, k := range keys {
		out[i].Key = k
	}
	if len(keys) == 0 {
		return out
	}
	start := time.Now()
	if tr := c.cfg.Obs.SampleTrace("client.mget"); tr != nil {
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(c.cfg.Obs)
	}
	defer func() { c.hBatchRead.Observe(time.Since(start)) }()
	c.nBatchKeys.Add(uint64(len(keys)))

	groups := c.groupByPrimary(len(keys), func(i int) kv.Key { return keys[i] })
	var wg sync.WaitGroup
	for _, idxs := range groups {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			c.mgetGroup(ctx, keys, idxs, out)
		}(idxs)
	}
	wg.Wait()
	return out
}

// mgetGroup reads one primary's keys over a single OpCoordReadBatch frame,
// falling back to per-key reads when the frame itself fails.
func (c *Client) mgetGroup(ctx context.Context, keys []kv.Key, idxs []int, out []MGetResult) {
	c.nBatchFrames.Inc()
	var e wire.Enc
	e.U32(uint32(len(idxs)))
	for _, i := range idxs {
		e.Str(string(keys[i]))
	}
	d, err := c.doKeyed(ctx, keys[idxs[0]], core.OpCoordReadBatch, e.B)
	if err != nil {
		c.mgetFallback(ctx, keys, idxs, out)
		return
	}
	n := int(d.U32())
	if d.Err != nil || n != len(idxs) {
		c.mgetFallback(ctx, keys, idxs, out)
		return
	}
	for _, i := range idxs {
		st := d.U16()
		detail := d.Str()
		blob := d.Bytes()
		if d.Err != nil {
			c.mgetFallback(ctx, keys, idxs, out)
			return
		}
		if kerr := core.StatusErr(st, detail); kerr != nil {
			out[i].Err = kerr
			continue
		}
		row, derr := kv.DecodeRow(blob)
		if derr != nil {
			out[i].Err = derr
			continue
		}
		v, ok := row.Latest()
		if !ok {
			out[i].Err = core.ErrNotFound
			continue
		}
		out[i].Value, out[i].TS = v.Value, v.TS
	}
}

// mgetFallback degrades one group to the single-key path so a broken batch
// frame never fails keys that individual reads could still serve.
func (c *Client) mgetFallback(ctx context.Context, keys []kv.Key, idxs []int, out []MGetResult) {
	c.nBatchFallbacks.Inc()
	for _, i := range idxs {
		v, ts, err := c.ReadLatest(ctx, keys[i])
		out[i].Value, out[i].TS, out[i].Err = v, ts, err
	}
}

// MSet writes many keys with write_latest semantics in one round of batched
// RPCs. The returned slice aligns with items: nil for a successful write,
// core.ErrFailure per key otherwise. A frame that fails
// falls back to single-key writes for its keys, so one dark primary
// degrades only its own keys.
func (c *Client) MSet(ctx context.Context, items []MSetItem) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	start := time.Now()
	if tr := c.cfg.Obs.SampleTrace("client.mset"); tr != nil {
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(c.cfg.Obs)
	}
	defer func() { c.hBatchWrite.Observe(time.Since(start)) }()
	c.nBatchKeys.Add(uint64(len(items)))

	groups := c.groupByPrimary(len(items), func(i int) kv.Key { return items[i].Key })
	var wg sync.WaitGroup
	for _, idxs := range groups {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			c.msetGroup(ctx, items, idxs, errs)
		}(idxs)
	}
	wg.Wait()
	return errs
}

// msetGroup writes one primary's items over a single OpCoordWriteBatch
// frame, falling back to per-key writes when the frame itself fails.
func (c *Client) msetGroup(ctx context.Context, items []MSetItem, idxs []int, errs []error) {
	c.nBatchFrames.Inc()
	var e wire.Enc
	e.Str(c.cfg.Source)
	e.U32(uint32(len(idxs)))
	for _, i := range idxs {
		e.Str(string(items[i].Key))
		e.Bytes(items[i].Value)
		e.U8(byte(quorum.Latest))
		e.Bool(false)
	}
	d, err := c.doKeyed(ctx, items[idxs[0]].Key, core.OpCoordWriteBatch, e.B)
	if err != nil {
		c.msetFallback(ctx, items, idxs, errs)
		return
	}
	n := int(d.U32())
	if d.Err != nil || n != len(idxs) {
		c.msetFallback(ctx, items, idxs, errs)
		return
	}
	for _, i := range idxs {
		st := d.U16()
		detail := d.Str()
		if d.Err != nil {
			c.msetFallback(ctx, items, idxs, errs)
			return
		}
		errs[i] = core.StatusErr(st, detail)
	}
}

func (c *Client) msetFallback(ctx context.Context, items []MSetItem, idxs []int, errs []error) {
	c.nBatchFallbacks.Inc()
	for _, i := range idxs {
		errs[i] = c.WriteLatest(ctx, items[i].Key, items[i].Value)
	}
}

// groupByPrimary splits the batch's indices by the primary owner of each
// key under the leased ring, preserving request order inside each group so
// frames and responses stay aligned. Without a ring every key lands in one
// group routed through the fallback server list, and groups never exceed
// core.MaxBatchKeys.
func (c *Client) groupByPrimary(n int, keyAt func(i int) kv.Key) map[string][]int {
	r := c.leasedRing()
	groups := map[string][]int{}
	for i := 0; i < n; i++ {
		primary := ""
		if r != nil {
			if owners := r.OwnersForKey(keyAt(i)); len(owners) > 0 {
				primary = string(owners[0])
			}
		}
		groups[primary] = append(groups[primary], i)
	}
	// Split oversized groups so no frame exceeds the servers' batch cap.
	for node, idxs := range groups {
		if len(idxs) <= core.MaxBatchKeys {
			continue
		}
		delete(groups, node)
		for part := 0; len(idxs) > 0; part++ {
			take := core.MaxBatchKeys
			if take > len(idxs) {
				take = len(idxs)
			}
			groups[fmt.Sprintf("%s#%d", node, part)] = idxs[:take]
			idxs = idxs[take:]
		}
	}
	return groups
}
