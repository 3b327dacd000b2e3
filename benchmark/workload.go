package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/client"
	"sedna/internal/kv"
	"sedna/internal/transport"
	"sedna/internal/workload"
)

// opKind is a client API call the workloads issue.
type opKind int

const (
	opWrite opKind = iota // WriteLatest
	opRead                // ReadLatest
	opMSet                // MSet of batchKeys
	opMGet                // MGet of batchKeys
	nKinds
)

var kindNames = [nKinds]string{"write", "read", "mset", "mget"}

const (
	batchKeys   = 16
	preloadKeys = 10000 // far more keys than workers, and all of them fit in memstore
	feedRecent  = 1000  // feed_open reads one of the last this-many written posts
	feedRate    = 400   // ops/s, about a quarter of what the closed loops reach on 2 cores
	sloLimit    = 10 * time.Millisecond
	warmup      = 2 * time.Second
)

// workloadSpec fixes one traffic mix. Every workload runs on a fresh cluster
// of the same topology.
type workloadSpec struct {
	name       string
	why        string
	valueBytes int
	dist       workload.Dist
	open       bool // open loop at feedRate instead of a closed loop of W workers
	crashCheck bool // SIGKILL the nodes afterwards and verify every acked write again
	// step issues one closed-loop operation.
	step func(w *worker)
}

var workloads = []*workloadSpec{
	{
		name: "write_quorum", valueBytes: 100, dist: workload.Uniform, crashCheck: true,
		why: "9 in 10 ops are quorum writes: fan-out, three replica applies and a WAL group-commit fsync each; quorum, core replica apply and wal/persist do the work",
		step: func(w *worker) {
			if w.rng.Intn(10) == 0 {
				w.read(w.gen.NextIndex(), time.Now())
			} else {
				w.write(w.owned(w.gen.NextIndex()), time.Now())
			}
		},
	},
	{
		name: "read_zipf", valueBytes: 100, dist: workload.Zipf,
		why: "95% reads, Zipf(1.1): client routing, transport, coordinator read-merge and memstore.Get do the work and the WAL is nearly idle, so a wal/persist change must show nothing here",
		step: func(w *worker) {
			if w.rng.Intn(20) == 0 {
				w.write(w.owned(w.gen.NextIndex()), time.Now())
			} else {
				w.read(w.gen.NextIndex(), time.Now())
			}
		},
	},
	{
		name: "batch_16", valueBytes: 256, dist: workload.Uniform,
		why: "alternating MSet/MGet of 16 keys: one frame per node, quorum settled per key, so a single-key gain that costs batches (or the reverse) shows; fsync-per-key hurts most here",
		step: func(w *worker) {
			w.turn++
			if w.turn%2 == 0 {
				w.mset(w.distinct(true), time.Now())
			} else {
				w.mget(w.distinct(false), time.Now())
			}
		},
	},
	{
		name: "feed_open", valueBytes: 100, open: true,
		why: "open loop at a quarter of capacity, half fresh-key writes and half reads of recent posts, one table subscriber: latency shows hops and queueing, not CPU, and only here does trigger work",
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// phaseStats is what one timed phase of a run observed.
type phaseStats struct {
	elapsed        time.Duration
	lat            [nKinds][]int64 // latencies of successful ops, ns
	attempted      int
	failed         int
	withinSLO      int     // successful ops that finished within sloLimit of their due time
	late           []int64 // open loop: how long after its due time an op was sent, ns
	ackedKeys      int     // keys whose write was acknowledged
	userBytes      int64   // key + value bytes of those
	wrongReads     int
	firstPost      int // feed_open: posts [firstPost, lastPost) were written in this phase
	lastPost       int
	cluster        procUsage // the four cluster processes, over the phase
	coordCPU       time.Duration
	driver         procUsage
	diskGrowth     int64
	eventLags      []int64
	eventsTotal    int // events received for this phase's posts
	eventsDistinct int // distinct posts among them
}

func (p *phaseStats) merge(o *phaseStats) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], o.lat[k]...)
	}
	p.attempted += o.attempted
	p.failed += o.failed
	p.withinSLO += o.withinSLO
	p.late = append(p.late, o.late...)
	p.ackedKeys += o.ackedKeys
	p.userBytes += o.userBytes
	p.wrongReads += o.wrongReads
}

func (p *phaseStats) ok() int { return p.attempted - p.failed }

// runner drives one workload against one cluster.
type runner struct {
	spec *workloadSpec
	seed int64
	cl   *cluster
	tcp  *transport.TCPTransport
	cli  *client.Client
	rec  *recorder // the driver's own spans; nil in an untraced run

	keys   *workload.Generator // Key(i) for the preloaded key space
	filler []byte
	// acked[i] is the sequence number of the last acknowledged write of key
	// i. Only the worker that owns i (i mod W) writes it during a phase.
	acked     []uint64
	uncertain []bool // a write of key i failed, so its value is unknown
	workers   []*worker

	feed    feedState
	feedOps int // operations of the open-loop schedule issued so far
}

// worker is one load-generating goroutine and its deterministic inputs.
type worker struct {
	id   int
	r    *runner
	rng  *rand.Rand
	gen  *workload.Generator // draws key indices in the workload's distribution
	seq  uint64              // the worker's write counter, stamped into values
	turn int                 // batch_16 alternates on it
	st   *phaseStats
}

// feedState is feed_open's shared state: the post counter, the last
// feedRecent acknowledged posts, and what the subscriber received.
type feedState struct {
	posts *workload.Generator
	sub   *client.Subscription
	done  chan struct{}

	mu       sync.Mutex
	next     int
	recent   []post
	events   []feedEvent
	received map[int]bool
}

type post struct {
	n    int
	sent int64
}

type feedEvent struct {
	post int
	lag  int64
}

func newRunner(spec *workloadSpec, seed int64, cl *cluster, rec *recorder) (*runner, error) {
	r := &runner{spec: spec, seed: seed, cl: cl, rec: rec}
	r.tcp = transport.NewTCP("")
	cfg := client.Config{Servers: cl.nodeAddrs(), Caller: r.tcp}
	if rec != nil {
		cfg.Caller = tracedCaller{r.tcp, rec}
	}
	var err error
	if r.cli, err = client.New(cfg); err != nil {
		return nil, err
	}
	r.keys = workload.NewGenerator(workload.Spec{Keys: preloadKeys, ValueBytes: spec.valueBytes, Seed: seed})
	r.filler = r.keys.Value(0)
	r.acked = make([]uint64, preloadKeys)
	r.uncertain = make([]bool, preloadKeys)
	for i := 0; i < workerCount(); i++ {
		r.workers = append(r.workers, &worker{
			id: i, r: r, seq: 1,
			rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
			gen: workload.NewGenerator(workload.Spec{Keys: preloadKeys, Dist: spec.dist, Seed: seed*1000 + int64(i)}),
		})
	}
	r.feed.posts = workload.NewGenerator(workload.Spec{Keys: 1 << 40, ValueBytes: spec.valueBytes, Dataset: "feed", Table: "posts"})
	r.feed.received = map[int]bool{}
	return r, nil
}

// close stops the subscriber, drops the connections and tears the cluster
// down. It may be called more than once.
func (r *runner) close() {
	if r.feed.sub != nil {
		r.feed.sub.Close()
		<-r.feed.done
		r.feed.sub = nil
	}
	r.tcp.Close()
	r.cl.close()
}

// liveUserBytes is the key + value size of one copy of what the cluster
// holds at the end of a run.
func (r *runner) liveUserBytes() int64 {
	if r.spec.open {
		return int64(r.feed.next) * int64(len(r.feed.posts.Key(0))+r.spec.valueBytes)
	}
	return preloadKeys * int64(len(r.keys.Key(0))+r.spec.valueBytes)
}

// value is what key i holds after its seq-th write: a stamp that names the
// key and the write, then the workload generator's constant filler.
func (r *runner) value(i int, seq uint64) []byte {
	v := append([]byte(nil), r.filler...)
	copy(v, fmt.Appendf(nil, "%08x-%016x-", i, seq))
	return v
}

// valueNames reports whether v carries key i's stamp.
func valueNames(v []byte, i int) bool {
	return bytes.HasPrefix(v, fmt.Appendf(nil, "%08x-", i))
}

// postValue starts with the send time so the subscriber can compute the
// event lag, then names the post.
func (r *runner) postValue(n int, sent int64) []byte {
	v := append([]byte(nil), r.filler...)
	copy(v, fmt.Appendf(nil, "%019d-%012d-", sent, n))
	return v
}

func parsePost(v []byte) (sent int64, n int, ok bool) {
	_, err := fmt.Sscanf(string(v[:min(len(v), 33)]), "%019d-%012d-", &sent, &n)
	return sent, n, err == nil
}

// preload writes every key once (feed_open: the first feedRecent posts), in
// batches, and fails on any error: nothing is timed on a partial data set.
func (r *runner) preload() error {
	n := preloadKeys
	if r.spec.open {
		n = feedRecent
	}
	var chunks [][]client.MSetItem
	now := time.Now().UnixNano()
	for lo := 0; lo < n; lo += loadChunk {
		var items []client.MSetItem
		for i := lo; i < min(lo+loadChunk, n); i++ {
			if r.spec.open {
				items = append(items, client.MSetItem{Key: r.feed.posts.Key(i), Value: r.postValue(i, now)})
				r.feed.recent = append(r.feed.recent, post{i, now})
			} else {
				items = append(items, client.MSetItem{Key: r.keys.Key(i), Value: r.value(i, 1)})
				r.acked[i] = 1
			}
		}
		chunks = append(chunks, items)
	}
	r.feed.next = len(r.feed.recent)
	return eachChunk(len(chunks), func(c int) error {
		// Writing the same values again is harmless, so a batch that hit a
		// quorum timeout (an fsync stall does that) is simply sent again.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			err = nil
			for _, kerr := range r.cli.MSet(context.Background(), chunks[c]) {
				if kerr != nil {
					err = fmt.Errorf("preload: %w", kerr)
				}
			}
			if err == nil {
				break
			}
		}
		return err
	})
}

// loadChunk keys per batch on 16 goroutines is what preload and read-back
// use. A replica applies a batch frame key by key with an fsync wait each,
// inside one 500 ms quorum timeout: 16 batches of 64 in flight were seen to
// exceed it on two cores; fewer in flight leave group commit less to merge.
const loadChunk = 32

// eachChunk runs fn(0..n-1) on 16 goroutines and returns the first error.
func eachChunk(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 16) // one slot per goroutine, so no send blocks
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// verify reads back keys and compares each with its last acknowledged
// value: every sample-th key (1 = all), or the recent posts on feed_open.
// It describes what did not match, the first few keys in detail.
func (r *runner) verify(sample int) (problems []string) {
	type want struct {
		key   kv.Key
		value []byte
	}
	var wants []want
	if r.spec.open {
		for _, p := range r.feed.recent {
			wants = append(wants, want{r.feed.posts.Key(p.n), r.postValue(p.n, p.sent)})
		}
	} else {
		for i := 0; i < preloadKeys; i += sample {
			if !r.uncertain[i] {
				wants = append(wants, want{r.keys.Key(i), r.value(i, r.acked[i])})
			}
		}
	}
	var mu sync.Mutex
	wrong := 0
	eachChunk((len(wants)+loadChunk-1)/loadChunk, func(c int) error {
		part := wants[c*loadChunk : min((c+1)*loadChunk, len(wants))]
		keys := make([]kv.Key, len(part))
		for i, w := range part {
			keys[i] = w.key
		}
		for i, res := range r.cli.MGet(context.Background(), keys) {
			if res.Err == nil && bytes.Equal(res.Value, part[i].value) {
				continue
			}
			mu.Lock()
			if wrong++; wrong <= 3 {
				problems = append(problems, fmt.Sprintf("read-back of %s: got %.40q (err %v), want %.40q", part[i].key, res.Value, res.Err, part[i].value))
			}
			mu.Unlock()
		}
		return nil
	})
	if wrong > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d keys did not read back as their last acknowledged value", wrong, len(wants)))
	}
	return problems
}

// --- operations ---

// owned maps a drawn key index to the nearest index this worker owns, so
// that each key has one writer and its last acknowledged value is known.
func (w *worker) owned(i int) int {
	n := len(w.r.workers)
	i = i - i%n + w.id
	if i >= preloadKeys {
		i -= n
	}
	return i
}

// distinct draws batchKeys different key indices, owned ones for a write.
func (w *worker) distinct(own bool) []int {
	out := make([]int, 0, batchKeys)
	seen := map[int]bool{}
	for len(out) < batchKeys {
		i := w.gen.NextIndex()
		if own {
			i = w.owned(i)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// timed runs one client call, timing it from `from` (the send time in a
// closed loop, the due time in an open loop) and, in a traced phase, under
// an op span that the client's RPCs become children of.
func (w *worker) timed(kind opKind, from time.Time, call func(ctx context.Context) bool) {
	ctx := context.Background()
	var s *span
	var began time.Time
	if rec := w.r.rec; rec != nil && rec.on.Load() {
		ctx, s, began = rec.start(ctx, kindOp, kindNames[kind])
	}
	ok := call(ctx)
	if s != nil {
		w.r.rec.finish(s, began)
	}
	lat := time.Since(from)
	w.st.attempted++
	if !ok {
		w.st.failed++
		return
	}
	w.st.lat[kind] = append(w.st.lat[kind], int64(lat))
	if lat <= sloLimit {
		w.st.withinSLO++
	}
}

func (w *worker) acked(key kv.Key, value []byte) {
	w.st.ackedKeys++
	w.st.userBytes += int64(len(key) + len(value))
}

func (w *worker) write(i int, from time.Time) {
	w.seq++
	key, value := w.r.keys.Key(i), w.r.value(i, w.seq)
	w.timed(opWrite, from, func(ctx context.Context) bool {
		if err := w.r.cli.WriteLatest(ctx, key, value); err != nil {
			w.r.uncertain[i] = true
			return false
		}
		w.r.acked[i] = w.seq
		w.acked(key, value)
		return true
	})
}

func (w *worker) read(i int, from time.Time) {
	key := w.r.keys.Key(i)
	w.timed(opRead, from, func(ctx context.Context) bool {
		v, _, err := w.r.cli.ReadLatest(ctx, key)
		if err == nil && !valueNames(v, i) {
			w.st.wrongReads++
		}
		return err == nil
	})
}

func (w *worker) mset(idx []int, from time.Time) {
	w.seq++
	items := make([]client.MSetItem, len(idx))
	for j, i := range idx {
		items[j] = client.MSetItem{Key: w.r.keys.Key(i), Value: w.r.value(i, w.seq)}
	}
	w.timed(opMSet, from, func(ctx context.Context) bool {
		ok := true
		for j, err := range w.r.cli.MSet(ctx, items) {
			if err != nil {
				w.r.uncertain[idx[j]] = true
				ok = false
				continue
			}
			w.r.acked[idx[j]] = w.seq
			w.acked(items[j].Key, items[j].Value)
		}
		return ok
	})
}

func (w *worker) mget(idx []int, from time.Time) {
	keys := make([]kv.Key, len(idx))
	for j, i := range idx {
		keys[j] = w.r.keys.Key(i)
	}
	w.timed(opMGet, from, func(ctx context.Context) bool {
		ok := true
		for j, res := range w.r.cli.MGet(ctx, keys) {
			if res.Err != nil {
				ok = false
			} else if !valueNames(res.Value, idx[j]) {
				w.st.wrongReads++
			}
		}
		return ok
	})
}

// --- feed_open ---

// subscribe registers the one table subscriber on a fixed node and starts
// collecting its events.
func (r *runner) subscribe() error {
	sub, err := r.cli.Subscribe(r.cl.nodes[0].spec.addr, []client.Hook{{Dataset: "feed", Table: "posts"}}, client.SubscribeOptions{})
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	r.feed.sub, r.feed.done = sub, make(chan struct{})
	go func() {
		defer close(r.feed.done)
		for ev := range sub.Events() {
			now := time.Now().UnixNano()
			sent, n, ok := parsePost(ev.Value)
			if !ok {
				continue
			}
			r.feed.mu.Lock()
			r.feed.events = append(r.feed.events, feedEvent{n, now - sent})
			r.feed.received[n] = true
			r.feed.mu.Unlock()
		}
	}()
	return nil
}

// mix64 is the splitmix64 finaliser: a cheap hash that makes operation i's
// choices a function of the seed and i alone, whichever worker runs it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// feedOp is operation i of the open-loop schedule: a write of a fresh post
// or, as often, a read of one of the recent ones.
func (w *worker) feedOp(i int, due time.Time) {
	f := &w.r.feed
	sentAt := time.Now()
	w.st.late = append(w.st.late, int64(sentAt.Sub(due)))
	pick := mix64(uint64(w.r.seed)<<32 + uint64(i))
	if pick&1 == 0 {
		f.mu.Lock()
		n := f.next
		f.next++
		f.mu.Unlock()
		sent := sentAt.UnixNano()
		key, value := f.posts.Key(n), w.r.postValue(n, sent)
		w.timed(opWrite, due, func(ctx context.Context) bool {
			if err := w.r.cli.WriteLatest(ctx, key, value); err != nil {
				return false
			}
			w.acked(key, value)
			f.mu.Lock()
			f.recent = append(f.recent, post{n, sent})
			if len(f.recent) > feedRecent {
				f.recent = f.recent[1:]
			}
			f.mu.Unlock()
			return true
		})
		return
	}
	f.mu.Lock()
	p := f.recent[int(pick>>1%uint64(len(f.recent)))]
	f.mu.Unlock()
	w.timed(opRead, due, func(ctx context.Context) bool {
		v, _, err := w.r.cli.ReadLatest(ctx, f.posts.Key(p.n))
		if err == nil && !bytes.Equal(v, w.r.postValue(p.n, p.sent)) {
			w.st.wrongReads++
		}
		return err == nil
	})
}

// clock is what the open loop needs from time, so that its scheduling can
// be tested against a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues n operations on a fixed schedule, operation i due at
// start + i*every, served by the given number of workers: each takes the
// next operation, waits for its due time if that is still ahead, and runs
// it. A worker that comes late does not skip or re-time the operation, so
// op (which times from due) charges a stall to every operation it delays.
func openLoop(clk clock, start time.Time, every time.Duration, n, workers int, op func(worker, i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * every)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				op(w, i, due)
			}
		}(w)
	}
	wg.Wait()
}

// --- phases ---

// phase runs the workload for d and returns what it observed, including
// what the cluster's processes and data directories spent on it.
func (r *runner) phase(d time.Duration) (*phaseStats, error) {
	total := &phaseStats{firstPost: r.feed.next}
	for _, w := range r.workers {
		w.st = &phaseStats{}
	}
	before, err := r.sample()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if r.spec.open {
		every := time.Second / feedRate
		base := r.feedOps
		n := int(d / every)
		r.feedOps += n
		openLoop(realClock{}, start, every, n, len(r.workers), func(w, i int, due time.Time) {
			r.workers[w].feedOp(base+i, due)
		})
	} else {
		var wg sync.WaitGroup
		for _, w := range r.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for time.Since(start) < d {
					r.spec.step(w)
				}
			}(w)
		}
		wg.Wait()
	}
	total.elapsed = time.Since(start)
	after, err := r.sample()
	if err != nil {
		return nil, err
	}
	for _, w := range r.workers {
		total.merge(w.st)
	}
	total.lastPost = r.feed.next
	total.cluster = after.cluster.minus(before.cluster)
	total.coordCPU = after.coordCPU - before.coordCPU
	total.driver = after.driver.minus(before.driver)
	total.diskGrowth = after.disk - before.disk
	if r.spec.open {
		r.awaitEvents(total)
	}
	return total, nil
}

// usageSample is one reading of everything a phase takes the difference of.
type usageSample struct {
	cluster, driver procUsage
	coordCPU        time.Duration
	disk            int64
}

func (u procUsage) minus(o procUsage) procUsage {
	return procUsage{cpu: u.cpu - o.cpu, ctxsw: u.ctxsw - o.ctxsw, rssKiB: u.rssKiB}
}

func (r *runner) sample() (usageSample, error) {
	var s usageSample
	var err error
	if s.cluster, err = usage(r.cl.procs()); err != nil {
		return s, err
	}
	coord, err := readUsage(r.cl.coord.cmd.Process.Pid)
	if err != nil {
		return s, err
	}
	s.coordCPU = coord.cpu
	if s.driver, err = readUsage(os.Getpid()); err != nil {
		return s, err
	}
	s.disk, err = r.cl.dirBytes()
	return s, err
}

// awaitEvents gives the subscriber up to two seconds to receive the events
// of the phase's acknowledged posts, then records their lags.
func (r *runner) awaitEvents(p *phaseStats) {
	f := &r.feed
	deadline := time.Now().Add(2 * time.Second)
	for {
		f.mu.Lock()
		got := 0
		for n := p.firstPost; n < p.lastPost; n++ {
			if f.received[n] {
				got++
			}
		}
		f.mu.Unlock()
		p.eventsDistinct = got
		if got >= p.ackedKeys || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ev := range f.events {
		if ev.post >= p.firstPost && ev.post < p.lastPost {
			p.eventLags = append(p.eventLags, ev.lag)
			p.eventsTotal++
		}
	}
}
