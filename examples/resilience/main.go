// Resilience example: the paper's §V discussion items in action —
// scache replication that survives a node failure, CRC page checksums
// whose mismatches heal transparently from a replica (and surface a
// typed error when nothing can repair them), a scripted crash/revival
// cycle closed by background anti-entropy re-replication, and
// access-key protection on a classified vector.
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"megammap"
)

func main() {
	replication()
	selfHealing()
	corruption()
	revival()
	accessControl()
}

func replication() {
	cfg := megammap.DefaultConfig()
	cfg.Replicas = 1
	c := megammap.NewCluster(megammap.DefaultTestbed(3))
	defer c.Close()
	d := megammap.NewDSM(c, cfg)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, err := megammap.Open[int64](cl, "survivor", megammap.Int64Codec{})
		if err != nil {
			log.Fatal(err)
		}
		const n = 1 << 14
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*i%7919)
		}
		v.TxEnd()
		v.Close()

		d.Hermes().FailNode(0) // pull the plug on node 0
		var sum int64
		v.SeqTxBegin(0, n, megammap.ReadOnly)
		for i, val := range v.All(0, n) {
			if val != i*i%7919 {
				log.Fatalf("data lost at %d", i)
			}
			sum += val
		}
		v.TxEnd()
		fmt.Printf("replication: node 0 failed, all %d elements intact (sum %d)\n", n, sum)
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}

// selfHealing flips a bit on a replicated, checksummed page: the next
// read detects the mismatch, pulls the replica's good bytes, rewrites
// the primary, and returns correct data — no error surfaces.
func selfHealing() {
	cfg := megammap.DefaultConfig()
	cfg.Replicas = 1
	cfg.ChecksumPages = true
	c := megammap.NewCluster(megammap.DefaultTestbed(2))
	defer c.Close()
	d := megammap.NewDSM(c, cfg)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := megammap.Open[int64](cl, "healed", megammap.Int64Codec{})
		v.Resize(4096)
		v.SeqTxBegin(0, 4096, megammap.WriteOnly)
		for i := int64(0); i < 4096; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()

		corruptFirstPage(c, d, "healed/")
		v.SeqTxBegin(0, 4096, megammap.ReadOnly)
		for i := int64(0); i < 4096; i++ {
			if v.Get(i) != i {
				log.Fatalf("self-healing returned wrong data at %d", i)
			}
		}
		v.TxEnd()
		fmt.Printf("self-healing: bit flip repaired from the replica (%d page repair)\n",
			d.PageRepairs())
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}

// corruption shows the typed-failure side: with no replica and no clean
// backend copy, the mismatch is unrepairable and the read surfaces
// megammap.ErrCorrupt — never silently wrong data.
func corruption() {
	cfg := megammap.DefaultConfig()
	cfg.ChecksumPages = true
	c := megammap.NewCluster(megammap.DefaultTestbed(1))
	defer c.Close()
	d := megammap.NewDSM(c, cfg)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := megammap.Open[int64](cl, "checked", megammap.Int64Codec{})
		v.Resize(4096)
		v.SeqTxBegin(0, 4096, megammap.WriteOnly)
		for i := int64(0); i < 4096; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		v.Close()

		corruptFirstPage(c, d, "checked/")
		v.SeqTxBegin(0, 4096, megammap.ReadOnly)
		_ = v.Get(0)
		v.TxEnd()
	})
	err := c.Engine.Run()
	if err != nil && errors.Is(err, megammap.ErrCorrupt) {
		fmt.Printf("corruption: unrepairable flip surfaced as typed error: %v\n", err)
	} else {
		log.Fatalf("corruption went undetected: %v", err)
	}
}

// revival scripts the full self-healing cycle with a fault plan: node
// 1's storage crashes at 50ms and restarts cold at 100ms. With only
// two nodes, nothing can host distinct backup copies during the
// outage, so the repair queue holds its entries until the revival —
// then the anti-entropy daemon re-replicates everything back onto the
// returned node and the redundancy window closes.
func revival() {
	cfg := megammap.DefaultConfig()
	cfg.Replicas = 1
	c := megammap.NewCluster(megammap.DefaultTestbed(2))
	defer c.Close()
	c.InstallFaults(megammap.FaultPlan{
		Seed:    42,
		Crashes: []megammap.Crash{{Node: 1, At: 50 * megammap.Millisecond}},
		Revives: []megammap.Revive{{Node: 1, At: 100 * megammap.Millisecond}},
	})
	d := megammap.NewDSM(c, cfg)
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, _ := megammap.Open[int64](cl, "phoenix", megammap.Int64Codec{})
		const n = 1 << 14
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i^0x2a)
		}
		v.TxEnd()
		v.Close()

		// Ride out the crash window degraded: reads fail over to backups.
		for p.Now() < 60*megammap.Millisecond {
			p.Sleep(10 * megammap.Millisecond)
		}
		v.SeqTxBegin(0, n, megammap.ReadOnly)
		for i := int64(0); i < n; i++ {
			if v.Get(i) != i^0x2a {
				log.Fatalf("data lost during the outage at %d", i)
			}
		}
		v.TxEnd()

		// Wait past the revival for the repair queue to drain.
		for i := 0; p.Now() < 110*megammap.Millisecond || d.Hermes().UnderReplicated() > 0; i++ {
			if i > 1000 {
				log.Fatal("repair queue did not drain")
			}
			p.Sleep(5 * megammap.Millisecond)
		}
		lost, restored, ok := d.Hermes().RedundancyWindow()
		if !ok {
			log.Fatal("redundancy window never closed")
		}
		fmt.Printf("revival: crash at 50ms, cold restart at 100ms, full redundancy after %v (window %v -> %v)\n",
			restored-lost, lost, restored)
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}

// corruptFirstPage strikes a cosmic ray into whichever tier holds the
// vector's first stored primary page (replica "@n" and backup "!bak"
// copies are skipped: the demo corrupts the copy reads hit first).
func corruptFirstPage(c *megammap.Cluster, d *megammap.DSM, prefix string) {
	for _, node := range c.Nodes {
		for _, dev := range node.Devices {
			for _, key := range dev.List() {
				name := d.Hermes().DisplayName(key)
				if strings.HasPrefix(name, prefix) && !strings.ContainsAny(name, "@!") {
					dev.CorruptBit(key, 512, 2)
					fmt.Printf("corruption: flipped a bit of %q on %s\n", name, dev.Name())
					return
				}
			}
		}
	}
	log.Fatalf("no stored page with prefix %q found", prefix)
}

func accessControl() {
	c := megammap.NewCluster(megammap.DefaultTestbed(1))
	defer c.Close()
	d := megammap.NewDSM(c, megammap.DefaultConfig())
	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		if _, err := megammap.Open[byte](cl, "classified", megammap.ByteCodec{},
			megammap.WithAccessKey("need-to-know")); err != nil {
			log.Fatal(err)
		}
		_, err := megammap.Open[byte](cl, "classified", megammap.ByteCodec{})
		fmt.Printf("access control: open without key -> %v\n", err)
		if _, err := megammap.Open[byte](cl, "classified", megammap.ByteCodec{},
			megammap.WithAccessKey("need-to-know")); err != nil {
			log.Fatal(err)
		}
		fmt.Println("access control: open with key -> ok")
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}
