// Gray-Scott example: the paper's reaction-diffusion simulation on the
// public API. The 3-D grid lives in MegaMmap shared vectors; ranks own
// Z-slabs, halo planes arrive transparently through the DSM, and
// checkpoints persist through the asynchronous staging engine while the
// next step computes.
package main

import (
	"fmt"
	"log"

	"megammap"
	"megammap/internal/apps/grayscott"
)

const (
	nodes = 2
	ranks = 8
	side  = 32
	steps = 6
)

func main() {
	c := megammap.NewCluster(megammap.DefaultTestbed(nodes))
	defer c.Close()
	d := megammap.NewDSM(c, megammap.DefaultConfig())
	w := megammap.NewWorld(c, ranks)

	cfg := grayscott.Config{
		L: side, Steps: steps, PlotGap: 2,
		CkptURL:    "file:///out/grid.bin",
		BoundBytes: 256 << 10,
	}
	err := w.Run(func(r *megammap.Rank) {
		res, err := grayscott.Mega(r, d, cfg)
		if err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			fmt.Printf("grid            = %d^3 cells (%d KiB)\n", side, res.GridBytes>>10)
			fmt.Printf("checksum        = %.6f\n", res.Checksum)
			fmt.Printf("checkpoints     = %d\n", res.Checkpoints)
			fmt.Printf("virtual runtime = %v\n", r.Proc().Now())
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint file = %d bytes on the PFS\n", c.PFSSize("/out/grid.bin"))
	usage := d.Hermes().TierUsage()           // as it stood at Shutdown, which released the tiers
	for _, tier := range d.Hermes().Tiers() { // fastest first: map iteration would shuffle lines
		fmt.Printf("scache %-5s    = %d KiB\n", tier, usage[tier]>>10)
	}
}
