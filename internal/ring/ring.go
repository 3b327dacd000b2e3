// Package ring implements Sedna's partitioning layer (§III-B): a consistent
// hash ring equally divided into a fixed number of virtual nodes, an explicit
// virtual-node → real-node assignment table (the state Sedna keeps in its
// coordination service), per-vnode load statistics and the per-real-node
// imbalance table that drives data balancing.
//
// The vnode count is fixed when the cluster is created and cannot change
// without a restart, exactly as the paper specifies; the paper's guidance of
// roughly 100 virtual nodes per real server is exposed as
// DefaultVnodesPerNode.
package ring

import (
	"errors"
	"fmt"

	"sedna/internal/kv"
)

// DefaultVnodesPerNode is the paper's rule of thumb: about 100 virtual nodes
// stored per real node (§III-D), so a 1,000-server cluster uses ~100,000
// virtual nodes.
const DefaultVnodesPerNode = 100

// DefaultReplicas is the paper's replication degree: every datum is stored
// on one server and replicated on two others (§III-B, Fig. 3).
const DefaultReplicas = 3

// VNodeID identifies one virtual node, a contiguous sub-range of the hash
// space. Valid ids are 0 <= id < NumVNodes.
type VNodeID uint32

// NodeID identifies a real server. The empty string is "unassigned".
type NodeID string

// Hash64 is the key hash used across Sedna. It is FNV-1a with an avalanche
// finalizer so that the low bits used by the modulo are well mixed even for
// the paper's sequential "test-00000000000001"-style keys.
func Hash64(key kv.Key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashPair mixes a node name with a vnode id, used for deterministic replica
// placement preferences.
func hashPair(node NodeID, v VNodeID) uint64 {
	h := Hash64(kv.Key(node))
	x := h ^ (uint64(v)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return x
}

// Ring is an immutable snapshot of the partition map: the fixed vnode count
// plus the replica assignment of every vnode. Servers and clients route with
// a Ring snapshot leased from the coordination service, which is what makes
// Sedna a zero-hop DHT (§VII).
type Ring struct {
	vnodes   int
	replicas int
	version  uint64
	// assign is indexed by VNodeID; each entry lists the replica holders,
	// primary first.
	assign [][]NodeID
	// epochs is indexed by VNodeID and counts ownership changes of that
	// vnode: every time any replica slot of the vnode is reassigned the
	// epoch is bumped. Anti-entropy sweeps and migration cutovers compare
	// epochs to detect that ownership moved under them.
	epochs []uint64
}

// NumVNodes returns the fixed virtual node count.
func (r *Ring) NumVNodes() int { return r.vnodes }

// ReplicaFactor returns the target number of replicas per vnode.
func (r *Ring) ReplicaFactor() int { return r.replicas }

// Version returns the monotonically increasing version of the assignment;
// clients use it to detect stale leases.
func (r *Ring) Version() uint64 { return r.version }

// EpochOf returns the ownership epoch of a vnode: how many times any of its
// replica slots has been reassigned since the cluster was created.
func (r *Ring) EpochOf(v VNodeID) uint64 {
	if int(v) >= len(r.epochs) {
		return 0
	}
	return r.epochs[v]
}

// bumpEpoch increments the ownership epoch of vnode v.
func (r *Ring) bumpEpoch(v VNodeID) {
	if int(v) < len(r.epochs) {
		r.epochs[v]++
	}
}

// VNodeFor maps a key onto its virtual node: hash the key to an integer,
// then mod into the vnode range (§III-B).
func (r *Ring) VNodeFor(key kv.Key) VNodeID {
	return VNodeID(Hash64(key) % uint64(r.vnodes))
}

// Owners returns the replica holders of a vnode, primary first. The returned
// slice must not be modified.
func (r *Ring) Owners(v VNodeID) []NodeID {
	if int(v) >= len(r.assign) {
		return nil
	}
	return r.assign[v]
}

// OwnersForKey returns the replica holders responsible for a key.
func (r *Ring) OwnersForKey(key kv.Key) []NodeID {
	return r.Owners(r.VNodeFor(key))
}

// Primary returns the primary holder of the key's vnode, or "" when the
// vnode is unassigned.
func (r *Ring) Primary(key kv.Key) NodeID {
	owners := r.OwnersForKey(key)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// VNodesOf returns the vnodes for which node holds any replica, in id order.
func (r *Ring) VNodesOf(node NodeID) []VNodeID {
	var out []VNodeID
	for v, owners := range r.assign {
		for _, o := range owners {
			if o == node {
				out = append(out, VNodeID(v))
				break
			}
		}
	}
	return out
}

// PrimaryVNodesOf returns the vnodes for which node is the primary holder.
func (r *Ring) PrimaryVNodesOf(node NodeID) []VNodeID {
	var out []VNodeID
	for v, owners := range r.assign {
		if len(owners) > 0 && owners[0] == node {
			out = append(out, VNodeID(v))
		}
	}
	return out
}

// Nodes returns the distinct real nodes appearing anywhere in the
// assignment, in first-appearance order.
func (r *Ring) Nodes() []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, owners := range r.assign {
		for _, o := range owners {
			if o != "" && !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// Clone returns a deep copy; Tables hand out Rings that share no storage.
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes, replicas: r.replicas, version: r.version}
	c.assign = make([][]NodeID, len(r.assign))
	for i, owners := range r.assign {
		c.assign[i] = append([]NodeID(nil), owners...)
	}
	c.epochs = append([]uint64(nil), r.epochs...)
	return c
}

// Validate checks the structural invariants of the snapshot: every vnode has
// at most ReplicaFactor owners and owners are pairwise distinct.
func (r *Ring) Validate() error {
	if r.vnodes <= 0 {
		return errors.New("ring: vnode count must be positive")
	}
	if len(r.assign) != r.vnodes {
		return fmt.Errorf("ring: assignment covers %d of %d vnodes", len(r.assign), r.vnodes)
	}
	if len(r.epochs) != r.vnodes {
		return fmt.Errorf("ring: epoch vector covers %d of %d vnodes", len(r.epochs), r.vnodes)
	}
	for v, owners := range r.assign {
		if len(owners) > r.replicas {
			return fmt.Errorf("ring: vnode %d has %d owners, max %d", v, len(owners), r.replicas)
		}
		for i := 0; i < len(owners); i++ {
			if owners[i] == "" {
				continue // unassigned slot
			}
			for j := i + 1; j < len(owners); j++ {
				if owners[i] == owners[j] {
					return fmt.Errorf("ring: vnode %d repeats owner %q", v, owners[i])
				}
			}
		}
	}
	return nil
}
