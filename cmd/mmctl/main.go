// Command mmctl works with MegaMmap deployment files (the paper's YAML
// configuration interface):
//
//	mmctl validate configs/example.yaml        parse and print the deployment
//	mmctl smoke configs/example.yaml           run a write/read smoke workload
//	mmctl trace configs/example.yaml out.json  run a traced KMeans workload and
//	                                           emit Chrome trace-event JSON
package main

import (
	"fmt"
	"os"

	"megammap"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: mmctl {validate|smoke|trace} <deployment.yaml> [trace-out.json]")
		os.Exit(2)
	}
	raw, err := os.ReadFile(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmctl:", err)
		os.Exit(1)
	}
	d, err := megammap.LoadDeployment(string(raw))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmctl:", err)
		os.Exit(1)
	}
	switch os.Args[1] {
	case "validate":
		printDeployment(d)
	case "smoke":
		printDeployment(d)
		if err := smoke(d); err != nil {
			fmt.Fprintln(os.Stderr, "mmctl: smoke:", err)
			os.Exit(1)
		}
	case "trace":
		out := "trace.json"
		if len(os.Args) > 3 {
			out = os.Args[3]
		}
		if err := trace(d, out); err != nil {
			fmt.Fprintln(os.Stderr, "mmctl: trace:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "mmctl: unknown command %q\n", os.Args[1])
		os.Exit(2)
	}
}

func printDeployment(d *megammap.Deployment) {
	fmt.Printf("cluster: %d nodes x %d cores, %dMB DRAM/node, link %s, PFS %dGB\n",
		d.Cluster.Nodes, d.Cluster.CoresPer, d.Cluster.DRAMPer>>20,
		d.Cluster.Link.Name, d.Cluster.PFS.Capacity>>30)
	for _, tier := range d.Cluster.Tiers {
		fmt.Printf("  tier %-5s %6dMB  %.1fGB/s read, score %.2f\n",
			tier.Name, tier.Profile.Capacity>>20, tier.Profile.ReadBW/1e9, tier.Profile.Score)
	}
	fmt.Printf("runtime: tiers %v, %dKB pages, workers %d+%d, organize %v, stage %v, replicas %d, checksums %v\n",
		d.Runtime.Tiers, d.Runtime.DefaultPageSize>>10,
		d.Runtime.WorkersLowLat, d.Runtime.WorkersHighLat,
		d.Runtime.OrganizePeriod,
		d.Runtime.StagePeriod, d.Runtime.Replicas, d.Runtime.ChecksumPages)
}

func smoke(dep *megammap.Deployment) error {
	c, d := dep.Build()
	defer c.Close()
	ranks := dep.Cluster.Nodes * 2
	w := megammap.NewWorld(c, ranks)
	const n = 1 << 15
	err := w.Run(func(r *megammap.Rank) {
		cl := d.NewClient(r.Proc(), r.Node().ID)
		v, err := megammap.Open[int64](cl, "file:///smoke/data.bin", megammap.Int64Codec{})
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			v.Resize(n)
		}
		cl.Barrier("sized", r.Size())
		v.Pgas(r.Rank(), r.Size())
		off, ln := v.LocalOff(), v.LocalLen()
		v.SeqTxBegin(off, ln, megammap.WriteOnly)
		for i := off; i < off+ln; i++ {
			v.Set(i, i^0x2A)
		}
		v.TxEnd()
		cl.Barrier("written", r.Size())
		v.SeqTxBegin(0, n, megammap.ReadOnly|megammap.Global)
		for i, val := range v.All(0, n) {
			if val != i^0x2A {
				r.Fail(fmt.Errorf("data mismatch at %d", i))
				return
			}
		}
		v.TxEnd()
		cl.Barrier("done", r.Size())
		if r.Rank() == 0 {
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		return err
	}
	faults, prefetches, evictions := d.Stats()
	fmt.Printf("smoke: %d ranks wrote+verified %d elements in %v virtual time\n", ranks, n, c.Engine.Now())
	fmt.Printf("smoke: faults=%d prefetches=%d evictions=%d, persisted %dKB\n",
		faults, prefetches, evictions, c.PFSSize("/smoke/data.bin")>>10)
	return nil
}
