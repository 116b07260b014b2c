// Package topology models a disaggregated cluster layout: the uniform
// node splits into compute nodes (local DRAM/NVMe stacks that run the
// application ranks) and fabric-attached memory-pool nodes (large DRAM
// arenas with no application procs), in the style of rack-scale memory
// disaggregation (DRackSim). Pool nodes are ordinary fabric endpoints
// appended after the compute nodes, so NIC contention, jitter,
// partitions, and crash/revive all apply to pool traffic with no extra
// machinery.
//
// The zero Spec describes today's uniform compute-only cluster; every
// consumer gates its pool paths on Enabled(), so a zero topology is
// byte-for-byte identical to a cluster built before this package
// existed.
package topology

import (
	"fmt"

	"megammap/internal/vtime"
)

// PoolTier is the tier name of the fabric-attached memory arena on a
// memory-pool node. It is the only tier a pool node has, and no compute
// node ever has it, so placements recorded against it are unambiguous.
const PoolTier = "remote_pool"

// Role classifies a node in the disaggregated layout.
type Role int

const (
	// RoleCompute runs application procs on a local DRAM/NVMe stack.
	RoleCompute Role = iota
	// RoleMemoryPool serves a fabric-attached DRAM arena; no app procs.
	RoleMemoryPool
)

var roleNames = [...]string{"compute", "memory_pool"}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Spec describes the memory-pool side of a disaggregated cluster. The
// compute side keeps its existing cluster.Spec description; pool nodes
// are appended after the compute nodes with IDs N..N+Pools-1.
type Spec struct {
	// Pools is the number of memory-pool nodes. 0 means a uniform
	// compute-only cluster (today's layout, byte-identical).
	Pools int

	// PoolBytes is the DRAM arena capacity of each pool node.
	PoolBytes int64

	// PoolLatency, when > 0, overrides the fabric link latency for any
	// transfer with a pool-node endpoint (the capacity-rich,
	// latency-poor pool link). 0 inherits the fabric profile.
	PoolLatency vtime.Duration

	// PoolBandwidth, when > 0, overrides the fabric link bandwidth
	// (bytes/s) for pool-endpoint transfers. 0 inherits the fabric.
	PoolBandwidth float64
}

// Enabled reports whether the spec describes any memory pools.
func (s Spec) Enabled() bool { return s.Pools > 0 }

// WithDefaults fills unset fields of an enabled spec: each pool node
// defaults to a 64MB arena. A disabled spec is returned unchanged, so
// the zero value stays the zero value.
func (s Spec) WithDefaults() Spec {
	if !s.Enabled() {
		return s
	}
	if s.PoolBytes == 0 {
		s.PoolBytes = 64 << 20
	}
	return s
}

// Validate rejects specs that would build a degenerate topology. A
// disabled (zero) spec always validates.
func (s Spec) Validate() error {
	if s.Pools < 0 {
		return fmt.Errorf("topology: pools must be >= 0 (got %d)", s.Pools)
	}
	if !s.Enabled() {
		return nil
	}
	if s.PoolBytes <= 0 {
		return fmt.Errorf("topology: pool_bytes must be > 0 with %d pools (got %d)", s.Pools, s.PoolBytes)
	}
	if s.PoolLatency < 0 {
		return fmt.Errorf("topology: pool_link_latency must be >= 0 (got %v)", s.PoolLatency)
	}
	if s.PoolBandwidth < 0 || s.PoolBandwidth != s.PoolBandwidth {
		return fmt.Errorf("topology: pool_link_bandwidth must be a finite value >= 0 (got %v)", s.PoolBandwidth)
	}
	return nil
}
