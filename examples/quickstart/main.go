// Quickstart: a single-node tour of the MegaMmap public API — create a
// simulated testbed, deploy the DSM, and use a bounded, persistent shared
// vector through intent-declaring transactions. Mirrors the flavor of the
// paper's Listing 1.
package main

import (
	"fmt"
	"log"

	"megammap"
)

func main() {
	// A one-node testbed with the paper's (scaled) storage hierarchy.
	c := megammap.NewCluster(megammap.DefaultTestbed(1))
	defer c.Close()
	d := megammap.NewDSM(c, megammap.DefaultConfig())

	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)

		// A nonvolatile vector: its name is a URL, so contents stage out
		// to the parallel filesystem and survive the job.
		v, err := megammap.Open[float64](cl, "file:///data/series.bin", megammap.Float64Codec{})
		if err != nil {
			log.Fatal(err)
		}
		const n = 1 << 18 // 2Mi of data through a 64Ki pcache
		v.Resize(n)
		v.BoundMemory(64 << 10)

		// Write-only phase: no read-before-write, asynchronous commits.
		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, float64(i)*0.5)
		}
		v.TxEnd()

		// Read-only phase: transaction-informed prefetching hides the
		// refault latency of everything the bound evicted.
		var sum float64
		v.SeqTxBegin(0, n, megammap.ReadOnly)
		for i := int64(0); i < n; i++ {
			sum += v.Get(i)
		}
		v.TxEnd()

		faults, prefetches, evictions := d.Stats()
		fmt.Printf("sum            = %.1f (expect %.1f)\n", sum, 0.5*float64(n)*float64(n-1)/2)
		fmt.Printf("virtual time   = %v\n", p.Now())
		fmt.Printf("sync faults    = %d\n", faults)
		fmt.Printf("async prefetch = %d\n", prefetches)
		fmt.Printf("evictions      = %d\n", evictions)
		usage := d.Hermes().TierUsage()
		for _, tier := range d.Hermes().Tiers() { // fastest first: map iteration would shuffle lines
			if used := usage[tier]; used > 0 {
				fmt.Printf("scache %-5s   = %d KiB\n", tier, used>>10)
			}
		}
		if err := d.Shutdown(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("persisted      = %d bytes at file:///data/series.bin\n", c.PFSSize("/data/series.bin"))
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}
