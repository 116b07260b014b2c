package main

import (
	"embed"
	"fmt"
	"strings"

	"megammap"
)

//go:embed workloads/*.yaml
var workloadFS embed.FS

// scaleShift is the repo's capacity scale: every simulated byte stands
// for 1024 real ones (48 GB DRAM -> 48 MB), so bandwidths divide by the
// same factor and per-element compute costs multiply by it; virtual
// durations then come out at the full-size system's magnitude. This is
// the benchmark's own copy of the rule the experiment drivers use, kept
// here so those drivers can be rewritten without editing the benchmark.
const scaleShift = 10

func scaleCost(d megammap.Duration) megammap.Duration { return d << scaleShift }

func scaleDev(p megammap.DeviceProfile) megammap.DeviceProfile {
	p.ReadBW /= 1 << scaleShift
	p.WriteBW /= 1 << scaleShift
	return p
}

// loadDeployment parses bench/workloads/<name>.yaml, followed by any
// extra sections, through the public configuration interface and
// rescales its bandwidths.
func loadDeployment(name string, extra ...string) (*megammap.Deployment, error) {
	doc, err := workloadFS.ReadFile("workloads/" + name + ".yaml")
	if err != nil {
		return nil, err
	}
	dep, err := megammap.LoadDeployment(string(doc) + strings.Join(extra, ""))
	if err != nil {
		return nil, fmt.Errorf("%s.yaml: %w", name, err)
	}
	for i := range dep.Cluster.Tiers {
		dep.Cluster.Tiers[i].Profile = scaleDev(dep.Cluster.Tiers[i].Profile)
	}
	dep.Cluster.PFS = scaleDev(dep.Cluster.PFS)
	dep.Cluster.Link.Bandwidth /= 1 << scaleShift
	dep.Cluster.PFSFanout = 8
	return dep, nil
}

// setTier overrides one tier's capacity (the DRAM-fraction sweep).
func setTier(dep *megammap.Deployment, tier string, capacity int64) {
	for i := range dep.Cluster.Tiers {
		if dep.Cluster.Tiers[i].Name == tier {
			dep.Cluster.Tiers[i].Profile.Capacity = capacity
		}
	}
}
