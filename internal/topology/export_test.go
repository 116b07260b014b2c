package topology

// RoleOf returns the role of node id on a cluster with computes compute
// nodes: pool nodes are the ids appended after them.
func RoleOf(id, computes int) Role {
	if id >= computes {
		return RoleMemoryPool
	}
	return RoleCompute
}
