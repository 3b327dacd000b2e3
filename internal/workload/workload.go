// Package workload generates the keys and values driving the paper's
// experiments (§VI-A): 20-byte sequential keys shaped like
// "test-00000000000000" with a constant 20-byte value, plus the uniform and
// zipfian variants used by the ablation benchmarks and a synthetic
// micro-blogging stream for the realtime use case (§V).
package workload

import (
	"fmt"
	"math/rand"

	"sedna/internal/kv"
)

// Dist selects the key access distribution.
type Dist int

const (
	// Sequential walks keys 0..Keys-1 in order, the paper's load.
	Sequential Dist = iota
	// Uniform picks keys uniformly at random.
	Uniform
	// Zipf skews accesses toward a hot head (s=1.1), the distribution
	// that exercises the imbalance table and the load balancer.
	Zipf
)

// String names the distribution.
func (d Dist) String() string {
	switch d {
	case Sequential:
		return "sequential"
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// Spec describes a workload.
type Spec struct {
	// Keys is the distinct key count.
	Keys int
	// ValueBytes sizes the constant value; zero selects the paper's 20.
	ValueBytes int
	// Dist selects the access pattern.
	Dist Dist
	// Seed makes Uniform and Zipf reproducible.
	Seed int64
	// Dataset and Table place the keys in Sedna's hierarchical key space;
	// empty selects "bench"/"kv".
	Dataset, Table string
}

// Paper returns the evaluation's exact workload shape: 20-byte keys
// ("test-" + 14 digits), 20-byte constant values, sequential access.
func Paper(keys int) Spec {
	return Spec{Keys: keys, ValueBytes: 20, Dist: Sequential}
}

// Generator produces keys and values for a Spec. It is not safe for
// concurrent use; give each client goroutine its own (Clone).
type Generator struct {
	spec  Spec
	value []byte
	rng   *rand.Rand
	zipf  *rand.Zipf
	next  int
}

// NewGenerator builds a generator.
func NewGenerator(spec Spec) *Generator {
	if spec.Keys <= 0 {
		spec.Keys = 1
	}
	if spec.ValueBytes <= 0 {
		spec.ValueBytes = 20
	}
	if spec.Dataset == "" {
		spec.Dataset = "bench"
	}
	if spec.Table == "" {
		spec.Table = "kv"
	}
	g := &Generator{spec: spec, value: make([]byte, spec.ValueBytes)}
	for i := range g.value {
		g.value[i] = 'v'
	}
	g.rng = rand.New(rand.NewSource(spec.Seed + 1))
	if spec.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(spec.Keys-1))
	}
	return g
}

// Clone returns an independent generator with a derived seed.
func (g *Generator) Clone(offset int64) *Generator {
	spec := g.spec
	spec.Seed += offset
	ng := NewGenerator(spec)
	return ng
}

// Key returns the i-th key (i taken modulo the key count). The flat name
// follows the paper's "test-%014d" shape so the full key is 20 bytes plus
// the hierarchy prefix.
func (g *Generator) Key(i int) kv.Key {
	i %= g.spec.Keys
	if i < 0 {
		i += g.spec.Keys
	}
	return kv.Join(g.spec.Dataset, g.spec.Table, fmt.Sprintf("test-%014d", i))
}

// HottestKey returns the key a Zipf generator hits most often (index 0 — Go's
// rand.Zipf maps rank 0 to the largest mass). Introspection experiments
// compare it against the hot-key sketch's top entry.
func (g *Generator) HottestKey() kv.Key { return g.Key(0) }

// Value returns the constant value (shared storage: treat as read-only).
func (g *Generator) Value(int) []byte { return g.value }

// NextIndex draws the next key index per the distribution.
func (g *Generator) NextIndex() int {
	switch g.spec.Dist {
	case Uniform:
		return g.rng.Intn(g.spec.Keys)
	case Zipf:
		return int(g.zipf.Uint64())
	default:
		i := g.next
		g.next = (g.next + 1) % g.spec.Keys
		return i
	}
}

// NextKey draws the next key.
func (g *Generator) NextKey() kv.Key { return g.Key(g.NextIndex()) }

// Tweet is one synthetic micro-blog message for the §V use case.
type Tweet struct {
	ID       string
	Author   string
	Text     string
	Mentions []string
}

// TweetStream produces reproducible synthetic tweets from a fixed pool of
// authors, with occasional mentions creating social-graph edges.
type TweetStream struct {
	rng     *rand.Rand
	authors []string
	n       int
}

// NewTweetStream builds a stream over the given author count.
func NewTweetStream(authors int, seed int64) *TweetStream {
	ts := &TweetStream{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < authors; i++ {
		ts.authors = append(ts.authors, fmt.Sprintf("user%03d", i))
	}
	return ts
}

var tweetWords = []string{
	"realtime", "cloud", "storage", "sedna", "memory", "trigger", "cluster",
	"latency", "scale", "index", "search", "stream", "quorum", "replica",
}

// Next produces the next tweet.
func (ts *TweetStream) Next() Tweet {
	ts.n++
	author := ts.authors[ts.rng.Intn(len(ts.authors))]
	words := 3 + ts.rng.Intn(8)
	text := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			text += " "
		}
		text += tweetWords[ts.rng.Intn(len(tweetWords))]
	}
	t := Tweet{
		ID:     fmt.Sprintf("tweet-%08d", ts.n),
		Author: author,
		Text:   text,
	}
	if ts.rng.Float64() < 0.3 {
		m := ts.authors[ts.rng.Intn(len(ts.authors))]
		if m != author {
			t.Mentions = append(t.Mentions, m)
			t.Text += " @" + m
		}
	}
	return t
}
