package hermes

import (
	"fmt"
	"testing"

	"megammap/internal/device"
	"megammap/internal/topology"
)

// TestPoolPlaceIndexMatchesScan runs the placement churn on a
// disaggregated cluster (9 compute nodes, 3 memory pools), with one and
// with two backup copies per blob: the pool legs of place, placeBackup
// and replicate against the linear scans'.
func TestPoolPlaceIndexMatchesScan(t *testing.T) {
	topo := topology.Spec{Pools: 3, PoolBytes: 256 * device.KB}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			placementChurn(t, churnSpec(9, topo), 23, 1500, replicas)
		})
	}
}
