// Package sedna is a from-scratch Go reproduction of "Sedna: A Memory Based
// Key-Value Storage System for Realtime Processing in Cloud" (Dai, Li,
// Wang, Sun, Zhou — IEEE CLUSTER Workshops 2012).
//
// Sedna is a RAM-based distributed key-value store for realtime cloud
// applications. A cluster consists of a small coordination sub-cluster (a
// ZooKeeper-like ensemble, implemented here from scratch) plus any number
// of data nodes. Data is partitioned with consistent hashing over a fixed
// set of virtual nodes, replicated N ways with quorum reads and writes
// (R+W > N, W > N/2) for eventual consistency, and every row carries the
// Dirty/Monitors metadata that powers Sedna's trigger-based realtime
// programming APIs: jobs watch keys, tables or datasets, filters gate
// updates, actions process them and write results back — with flow control
// that bounds trigger storms.
//
// # Quick start
//
// Boot a coordination member, a few data nodes, and a client:
//
//	coordTr := sedna.NewTCPTransport("127.0.0.1:7000")
//	ensemble := sedna.NewCoordServer(sedna.CoordConfig{
//	    ID: 0, Members: []string{"127.0.0.1:7000"}, Transport: coordTr,
//	})
//	ensemble.Start()
//
//	tr := sedna.NewTCPTransport("127.0.0.1:7101")
//	node, _ := sedna.NewServer(sedna.ServerConfig{
//	    Node:         "127.0.0.1:7101",
//	    Transport:    tr,
//	    CoordServers: []string{"127.0.0.1:7000"},
//	    Bootstrap:    true,
//	})
//	node.Start()
//
//	cli, _ := sedna.NewClient(sedna.ClientConfig{
//	    Servers: []string{"127.0.0.1:7101"},
//	    Caller:  sedna.NewTCPTransport(""),
//	})
//	cli.WriteLatest(ctx, sedna.JoinKey("web", "pages", "p1"), []byte("hi"))
//
// See examples/ for complete programs, including the paper's micro-blogging
// realtime search engine (§V) built on the trigger APIs.
package sedna

import (
	"sedna/internal/client"
	"sedna/internal/coord"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/netsim"
	"sedna/internal/obs"
	"sedna/internal/persist"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/trigger"
	"sedna/internal/wal"
)

// --- keys and values ---

// Key is a hierarchical key: "dataset/table/name".
type Key = kv.Key

// JoinKey builds a fully-qualified key from its components.
func JoinKey(dataset, table, name string) Key { return kv.Join(dataset, table, name) }

// Timestamp is Sedna's hybrid logical timestamp.
type Timestamp = kv.Timestamp

// Value is one element of a read_all result.
type Value = client.Value

// --- server side ---

// ServerConfig configures one Sedna data node.
type ServerConfig = core.Config

// Server is one Sedna data node (one "real node" of the paper).
type Server = core.Server

// NewServer builds a data node; call Start to bring it up.
func NewServer(cfg ServerConfig) (*Server, error) { return core.NewServer(cfg) }

// QuorumConfig fixes the replication parameters N, R and W.
type QuorumConfig = quorum.Config

// DefaultQuorum returns the paper's N=3, R=2, W=2.
func DefaultQuorum() QuorumConfig { return quorum.DefaultConfig() }

// NodeID identifies a data node (its dialable address).
type NodeID = ring.NodeID

// --- persistence ---

// PersistConfig selects a node's durability strategy.
type PersistConfig = persist.Config

// Persistency strategies (Table I of the paper).
const (
	PersistNone       = persist.None
	PersistPeriodic   = persist.Periodic
	PersistWriteAhead = persist.WriteAhead
)

// WAL sync policies.
const (
	SyncNever    = wal.SyncNever
	SyncInterval = wal.SyncInterval
	SyncAlways   = wal.SyncAlways
)

// --- coordination service ---

// CoordConfig configures one coordination ensemble member.
type CoordConfig = coord.ServerConfig

// CoordServer is one coordination ensemble member.
type CoordServer = coord.Server

// NewCoordServer builds a coordination member; call Start to bring it up.
func NewCoordServer(cfg CoordConfig) *CoordServer { return coord.NewServer(cfg) }

// --- client side ---

// ClientConfig configures a Sedna client.
type ClientConfig = client.Config

// Client provides the paper's data access APIs: WriteLatest, WriteAll,
// ReadLatest, ReadAll, Delete, plus Subscribe for pushed changes and the
// causal-replication surface (ReadSiblings, WriteLatestCtx, DeleteCtx).
type Client = client.Client

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// Siblings is the result of a ReadSiblings call: every causally
// concurrent value of a key plus the opaque context token a follow-up
// WriteLatestCtx/DeleteCtx uses to supersede exactly what was read
// (DESIGN.md §14).
type Siblings = client.Siblings

// Context is the opaque causal-context token carried from a
// ReadSiblings result into a context-carrying write.
type Context = client.Context

// MGetResult is one key's outcome in a batched multi-key read.
type MGetResult = client.MGetResult

// MSetItem is one key of a batched multi-key write.
type MSetItem = client.MSetItem

// Subscription streams changed data to a client.
type Subscription = client.Subscription

// SubscribeOptions tunes a subscription.
type SubscribeOptions = client.SubscribeOptions

// SubHook names monitored data for a subscription.
type SubHook = client.Hook

// Event is one pushed change.
type Event = client.Event

// Client-visible errors.
var (
	// ErrOutdated is the paper's "outdated" write reply.
	ErrOutdated = core.ErrOutdated
	// ErrFailure is the paper's "failure" reply (recovery scheduled).
	ErrFailure = core.ErrFailure
	// ErrNotFound reports a read of a key with no live value.
	ErrNotFound = core.ErrNotFound
)

// --- trigger APIs (§IV) ---

// Job is one trigger application: hooks + filter + action.
type Job = trigger.Job

// Hook names monitored data (key, table or dataset granularity).
type Hook = trigger.Hook

// KeyHook monitors one exact key.
func KeyHook(k Key) Hook { return trigger.KeyHook(k) }

// TableHook monitors every key of one table.
func TableHook(dataset, table string) Hook { return trigger.TableHook(dataset, table) }

// DatasetHook monitors every key of one dataset.
func DatasetHook(dataset string) Hook { return trigger.DatasetHook(dataset) }

// Filter gates trigger events; it sees the old and new snapshots (the
// paper's assert(oldKey, oldValue, newKey, newValue)).
type Filter = trigger.Filter

// FilterFunc adapts a function to Filter.
type FilterFunc = trigger.FilterFunc

// Snapshot is one side of a filter comparison.
type Snapshot = trigger.Snapshot

// Action processes fired events.
type Action = trigger.Action

// ActionFunc adapts a function to Action.
type ActionFunc = trigger.ActionFunc

// Result collects an action's output writes.
type Result = trigger.Result

// --- transports ---

// Transport carries Sedna RPCs.
type Transport = transport.Transport

// Caller issues Sedna RPCs.
type Caller = transport.Caller

// NewTCPTransport returns a real TCP transport listening on addr once
// served ("" or ":0" pick an ephemeral port; the empty address is fine for
// client-only use).
func NewTCPTransport(addr string) *transport.TCPTransport { return transport.NewTCP(addr) }

// TransportStageConfig tunes the staged server pipeline: reader shards,
// worker-pool size, dispatch-queue depth and the connection cap. Zero
// fields take defaults; Spawn=true selects the legacy
// goroutine-per-request server.
type TransportStageConfig = transport.StageConfig

// NewTCPTransportStaged returns a TCP transport whose server side runs the
// staged pipeline (sharded accept, event-loop readers, bounded dispatch,
// fixed worker pool, per-connection writers) with the given tuning.
func NewTCPTransportStaged(addr string, cfg TransportStageConfig) *transport.TCPTransport {
	return transport.NewTCPStaged(addr, cfg)
}

// --- observability ---

// ObsRegistry collects a process's counters, gauges and latency
// histograms. Pass one registry through ServerConfig.Obs, ClientConfig.Obs
// or CoordConfig.Obs to collect that component's metrics; a nil registry
// disables collection with no code changes.
type ObsRegistry = obs.Registry

// ObsSnapshot is a point-in-time copy of a registry. Snapshots from
// different nodes Merge into cluster-wide totals.
type ObsSnapshot = obs.Snapshot

// TraceSnapshot is one sampled per-op trace: stage names with timestamps
// from client arrival through quorum fan-out to the memstore.
type TraceSnapshot = obs.TraceSnapshot

// NodeStats is one data node's observability report as served by the
// stats RPC: its snapshot plus sampled traces.
type NodeStats = client.NodeStats

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// SimNetwork is the in-process simulated network used by tests, examples
// and the paper-reproduction benchmarks.
type SimNetwork = netsim.Network

// SimProfile describes simulated link behaviour.
type SimProfile = netsim.Profile

// NewSimNetwork creates a simulated network with the given default link
// profile and seed.
func NewSimNetwork(p SimProfile, seed int64) *SimNetwork { return netsim.NewNetwork(p, seed) }

// GigabitLAN approximates the paper's testbed network (1 GbE, <1ms RTT).
func GigabitLAN() SimProfile { return netsim.GigabitLAN() }
