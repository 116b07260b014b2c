// Out-of-core example: the paper's Fig. 6 moment in miniature. A dataset
// twice the size of a node's memory budget streams through a bounded
// pcache; MegaMmap spills pages across the storage hierarchy and the
// transaction-informed prefetcher keeps the re-scan fast, while the same
// workload with plain in-memory allocation would be OOM-killed.
package main

import (
	"fmt"
	"log"

	"megammap"
)

func main() {
	spec := megammap.DefaultTestbed(1)
	spec.DRAMPer = 4 * megammap.MB                   // a deliberately small node
	spec.Tiers[0].Profile.Capacity = 2 * megammap.MB // shrink the NVMe tier too
	c := megammap.NewCluster(spec)
	defer c.Close()

	// Plain allocation of the 8 MB working set: the OOM killer's view.
	if err := c.Nodes[0].Alloc(8 * megammap.MB); err != nil {
		fmt.Printf("plain in-memory allocation: %v\n\n", err)
	} else {
		log.Fatal("expected the OOM killer")
	}

	cfg := megammap.DefaultConfig()
	cfg.Tiers = []string{"nvme", "ssd", "hdd"}
	d := megammap.NewDSM(c, cfg)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, err := megammap.Open[int64](cl, "file:///data/big.bin", megammap.Int64Codec{})
		if err != nil {
			log.Fatal(err)
		}
		const n = 1 << 20 // 8 MB of int64s on a 4 MB node
		v.Resize(n)
		v.BoundMemory(1 * megammap.MB)

		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*i%1000003)
		}
		v.TxEnd()

		var sum int64
		v.SeqTxBegin(0, n, megammap.ReadOnly)
		for i := int64(0); i < n; i++ {
			sum += v.Get(i)
		}
		v.TxEnd()

		faults, prefetches, evictions := d.Stats()
		fmt.Printf("worked with 8MB data on a 4MB node:\n")
		fmt.Printf("  checksum   = %d\n", sum)
		fmt.Printf("  peak DRAM  = %d KiB of %d KiB\n", c.Nodes[0].DRAMPeak()>>10, spec.DRAMPer>>10)
		fmt.Printf("  faults     = %d, prefetches = %d, evictions = %d\n", faults, prefetches, evictions)
		usage := d.Hermes().TierUsage()
		for _, t := range spec.Tiers { // spec order: map iteration would shuffle lines
			if used := usage[t.Name]; used > 0 {
				fmt.Printf("  tier %-4s  = %d KiB\n", t.Name, used>>10)
			}
		}
		fmt.Printf("  virtual t  = %v\n", p.Now())
		if err := d.Shutdown(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  persisted  = %d KiB to the PFS\n", c.PFSSize("/data/big.bin")>>10)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}
