// Package testcluster assembles full in-process Sedna clusters — one
// coordination member and N data nodes — over a loopback simulated
// network, for the integration, chaos and elasticity tests. It measures
// nothing: performance is the standing real-TCP benchmark's job
// (benchmark/).
package testcluster

import (
	"fmt"
	"time"

	"sedna/internal/client"
	"sedna/internal/coord"
	"sedna/internal/core"
	"sedna/internal/netsim"
	"sedna/internal/obs"
	"sedna/internal/persist"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
)

// ClusterConfig sizes an in-process cluster.
type ClusterConfig struct {
	// Nodes is the number of Sedna data nodes. The ring has 16 vnodes per
	// node and N/R/W is 3/2/2, clamped to the node count when the cluster
	// is smaller.
	Nodes int
	// Seed makes the network reproducible.
	Seed int64
	// Persist selects each node's durability config (Dir gets a per-node
	// suffix); zero value disables persistence.
	Persist persist.Config
	// TriggerInterval tunes flow control on every node.
	TriggerInterval time.Duration
	// ScanEvery tunes the trigger scanner.
	ScanEvery time.Duration
	// SessionTimeout tunes liveness detection; zero selects 1s.
	SessionTimeout time.Duration
	// Breaker tunes every node's per-peer circuit breakers; zero fields
	// select the transport defaults.
	Breaker transport.BreakerConfig
	// SubIdleTimeout tunes subscription garbage collection.
	SubIdleTimeout time.Duration
	// TenantRule enables per-tenant attribution on every node and client
	// ("dataset", "table", "prefix:N"); empty disables.
	TenantRule string
}

// coordAddr is the simulated address of the single coordination member.
const coordAddr = "coord-0"

// Cluster is a running in-process Sedna deployment.
type Cluster struct {
	cfg     ClusterConfig
	quorum  quorum.Config
	coord   *coord.Server
	Net     *netsim.Network
	Servers []*core.Server
	// NodeAddrs lists the data nodes' simulated addresses.
	NodeAddrs  []string
	nextClient int
}

// NewCluster boots the coordination member and all data nodes, waiting
// until the cluster is fully formed.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("testcluster: need at least one node")
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = time.Second
	}
	q := quorum.DefaultConfig()
	if q.N > cfg.Nodes {
		// Clamp to a legal configuration for tiny clusters.
		q.N = cfg.Nodes
		q.W = cfg.Nodes/2 + 1
		q.R = cfg.Nodes + 1 - q.W
	}

	c := &Cluster{
		cfg:    cfg,
		quorum: q,
		Net:    netsim.NewNetwork(netsim.Loopback(), cfg.Seed),
	}
	c.coord = coord.NewServer(coord.ServerConfig{
		ID:              0,
		Members:         []string{coordAddr},
		Transport:       c.Net.Endpoint(coordAddr),
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 120 * time.Millisecond,
		RPCTimeout:      80 * time.Millisecond,
	})
	if err := c.coord.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !c.coord.IsLeader() {
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("testcluster: coordination member never elected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Data nodes.
	for i := 0; i < cfg.Nodes; i++ {
		c.NodeAddrs = append(c.NodeAddrs, fmt.Sprintf("sedna-%d", i))
	}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.addNode(i, false); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// RestartNode simulates a process restart of data node i: the old server is
// shut down, its endpoints are replaced, and a fresh server with the same
// identity (and persistence directory) boots and rejoins.
func (c *Cluster) RestartNode(i int) (*core.Server, error) {
	if i < len(c.Servers) && c.Servers[i] != nil {
		c.Servers[i].Close()
		c.Servers[i] = nil
	}
	c.Net.Reset(c.NodeAddrs[i])
	c.Net.Reset(c.NodeAddrs[i] + "-coordcli")
	c.Net.HealAll()
	return c.addNode(i, false)
}

// AddPassiveNode grows the cluster by one node that joins WITHOUT claiming
// vnodes (the scale-out entry point): data streams to it later, when a
// rebalance campaign runs. It returns the new node's index.
func (c *Cluster) AddPassiveNode() (int, *core.Server, error) {
	i := len(c.NodeAddrs)
	c.NodeAddrs = append(c.NodeAddrs, fmt.Sprintf("sedna-%d", i))
	srv, err := c.addNode(i, true)
	return i, srv, err
}

func (c *Cluster) addNode(i int, passive bool) (*core.Server, error) {
	addr := c.NodeAddrs[i]
	pcfg := c.cfg.Persist
	if pcfg.Strategy != persist.None && pcfg.Dir != "" {
		pcfg.Dir = fmt.Sprintf("%s/node-%d", c.cfg.Persist.Dir, i)
	}
	srv, err := core.NewServer(core.Config{
		Node:            ring.NodeID(addr),
		Transport:       c.Net.Endpoint(addr),
		CoordServers:    []string{coordAddr},
		CoordCaller:     c.Net.Endpoint(addr + "-coordcli"),
		SessionTimeout:  c.cfg.SessionTimeout,
		Quorum:          c.quorum,
		Breaker:         c.cfg.Breaker,
		Persist:         pcfg,
		Bootstrap:       i == 0,
		Passive:         passive,
		VNodes:          16 * c.cfg.Nodes,
		ScanEvery:       c.cfg.ScanEvery,
		TriggerInterval: c.cfg.TriggerInterval,
		SubIdleTimeout:  c.cfg.SubIdleTimeout,
		TenantRule:      c.cfg.TenantRule,
		ReconcileEvery:  200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	for len(c.Servers) <= i {
		c.Servers = append(c.Servers, nil)
	}
	c.Servers[i] = srv
	return srv, nil
}

// Client returns a fresh client with its own endpoint.
func (c *Cluster) Client() (*client.Client, error) {
	cl, _, err := c.ClientWithObs()
	return cl, err
}

// ClientWithObs returns a fresh client plus the registry collecting its
// client.* metrics.
func (c *Cluster) ClientWithObs() (*client.Client, *obs.Registry, error) {
	c.nextClient++
	ep := c.Net.Endpoint(fmt.Sprintf("client-%d", c.nextClient))
	reg := obs.NewRegistry()
	cl, err := client.New(client.Config{
		Servers:    c.NodeAddrs,
		Caller:     ep,
		Source:     ep.Addr(),
		Obs:        reg,
		TenantRule: c.cfg.TenantRule,
	})
	return cl, reg, err
}

// KillNode isolates node i (crash-like failure: the process runs but the
// network is gone, so its session expires and peers evict it).
func (c *Cluster) KillNode(i int) {
	c.Net.Isolate(c.NodeAddrs[i])
	c.Net.Isolate(c.NodeAddrs[i] + "-coordcli")
}

// PartitionNode cuts node i's data endpoint from the network while leaving
// its coordination-client endpoint reachable: the node keeps its session
// alive (no eviction) but replica traffic to it fails — the scenario hinted
// handoff is built for.
func (c *Cluster) PartitionNode(i int) {
	c.Net.Isolate(c.NodeAddrs[i])
}

// HealNode undoes PartitionNode (and the data half of KillNode) for node i.
func (c *Cluster) HealNode(i int) {
	c.Net.HealEndpoint(c.NodeAddrs[i])
	c.Net.HealEndpoint(c.NodeAddrs[i] + "-coordcli")
}

// Close shuts everything down.
func (c *Cluster) Close() {
	for _, s := range c.Servers {
		if s != nil {
			s.Close()
		}
	}
	c.coord.Close()
}

// WaitConverged blocks until every node's ring view contains exactly the
// given member count.
func (c *Cluster) WaitConverged(members int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, s := range c.Servers {
			if s == nil {
				continue
			}
			r := s.Ring()
			if r == nil || len(r.Nodes()) != members {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("testcluster: cluster never converged to %d members", members)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
