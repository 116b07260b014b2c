// Adaptive-control example: the repair governor paces anti-entropy
// re-replication from live utilization signals instead of a fixed
// RepairPeriod. The timeline crashes a node to build a repair backlog,
// then runs a foreground read burst over the surviving copies: the
// governor backs repair off to its maximum interval while repairs
// cannot progress (the stall latch rides out the outage) and while the
// foreground keeps the devices busy, then collapses to the minimum
// interval and drains the whole queue the moment the system goes idle.
package main

import (
	"fmt"
	"log"

	"megammap"
)

const (
	crashAt  = 60 * megammap.Millisecond
	reviveAt = 120 * megammap.Millisecond
	burstLen = 40 * megammap.Millisecond
)

// phase accumulates what the repair-interval gauge did during one
// stretch of the timeline.
type phase struct {
	name             string
	from, to         megammap.Duration
	minIval, maxIval int64 // control.repair_interval_us range
	maxQueue         int64 // core.repair_queue peak
}

func main() {
	cfg := megammap.DefaultConfig()
	cfg.Replicas = 1
	cfg.RepairPeriod = 0 // the governor owns repair pacing
	cfg.Control = megammap.DefaultControlConfig()

	c := megammap.NewCluster(megammap.DefaultTestbed(2))
	defer c.Close()
	tel := c.InstallTelemetry(megammap.TelemetryOptions{Metrics: true})
	c.InstallFaults(megammap.FaultPlan{
		Seed:    42,
		Crashes: []megammap.Crash{{Node: 1, At: crashAt}},
		Revives: []megammap.Revive{{Node: 1, At: reviveAt}},
	})
	d := megammap.NewDSM(c, cfg)

	var (
		phases []*phase
		cur    *phase
	)
	begin := func(now megammap.Duration, name string) {
		if cur != nil {
			cur.to = now
		}
		cur = &phase{name: name, from: now, minIval: 1 << 62}
		phases = append(phases, cur)
	}

	// The sampler rides the same vtime clock as the control ticker, so
	// every sample lands between governor decisions deterministically.
	reg := tel.Registry()
	ivalKey := megammap.MetricKey{Name: "control.repair_interval_us", Node: -1, Subsystem: "control"}
	queueKey := megammap.MetricKey{Name: "core.repair_queue", Node: -1, Subsystem: "core"}
	c.Engine.SpawnDaemon("sampler", func(p *megammap.Proc) {
		for {
			p.Sleep(500 * megammap.Microsecond)
			ival, q := reg.Value(ivalKey), reg.Value(queueKey)
			if cur == nil || ival == 0 {
				continue // control plane has not ticked yet
			}
			if ival < cur.minIval {
				cur.minIval = ival
			}
			if ival > cur.maxIval {
				cur.maxIval = ival
			}
			if q > cur.maxQueue {
				cur.maxQueue = q
			}
		}
	})

	c.Engine.Spawn("app", func(p *megammap.Proc) {
		cl := d.NewClient(p, 0)
		v, err := megammap.Open[int64](cl, "guarded", megammap.Int64Codec{})
		if err != nil {
			log.Fatal(err)
		}
		const n = 1 << 15
		begin(p.Now(), "write")
		v.Resize(n)
		v.BoundMemory(2 * v.PageSize())
		v.SeqTxBegin(0, n, megammap.WriteOnly)
		for i := int64(0); i < n; i++ {
			v.Set(i, i*3+1)
		}
		v.TxEnd()
		v.Close()
		if p.Now() >= crashAt {
			log.Fatalf("write ran past the scripted crash (%v)", p.Now())
		}

		// Quiet stretch before the scripted crash: nothing to repair, no
		// load, so the governor relaxes the interval toward RepairMin.
		begin(p.Now(), "quiet")
		for p.Now() < crashAt {
			p.Sleep(megammap.Millisecond)
		}

		// Node 1 dies at 60ms, stranding every backup copy. Repair wakes
		// keep trying, find no live replica target, and the stall latch
		// pins the interval at RepairMax instead of burning the fabric.
		begin(p.Now(), "outage")
		for p.Now() < reviveAt {
			p.Sleep(megammap.Millisecond)
		}

		// The revived node is cold: the whole dataset is under-replicated
		// and the governor could race ahead — but the foreground scan
		// keeps the devices busy, so repair must stay backed off.
		begin(p.Now(), "burst")
		for deadline := p.Now() + burstLen; p.Now() < deadline; {
			v.SeqTxBegin(0, n, megammap.ReadOnly)
			for i := int64(0); i < n; i++ {
				if got := v.Get(i); got != i*3+1 {
					log.Fatalf("data lost during the outage at %d: %d", i, got)
				}
			}
			v.TxEnd()
		}

		// RedundancyWindow (not a raw queue poll) is the drain signal:
		// the queue empties while the last repair's transfer is still in
		// flight, and the window only closes once it lands.
		begin(p.Now(), "idle")
		for i := 0; ; i++ {
			if _, _, ok := d.Hermes().RedundancyWindow(); ok {
				break
			}
			if i > 2000 {
				log.Fatal("repair queue did not drain")
			}
			p.Sleep(megammap.Millisecond)
		}
		cur.to = p.Now()

		minUs := int64(megammap.ControlRepairMin / megammap.Microsecond)
		maxUs := int64(megammap.ControlRepairMax / megammap.Microsecond)
		fmt.Printf("adaptive repair pacing (governor bounds %d..%dµs):\n", minUs, maxUs)
		for _, ph := range phases {
			fmt.Printf("  %-6s %5.1fms .. %5.1fms  interval %5d..%5dµs  queue peak %d\n",
				ph.name,
				float64(ph.from)/float64(megammap.Millisecond),
				float64(ph.to)/float64(megammap.Millisecond),
				ph.minIval, ph.maxIval, ph.maxQueue)
		}
		quiet, outage, burst, idle := phases[1], phases[2], phases[3], phases[4]
		if quiet.minIval != minUs {
			log.Fatalf("repair pacing never relaxed while quiet: %dµs", quiet.minIval)
		}
		if outage.maxIval != maxUs {
			log.Fatalf("stall latch never pinned the interval: %dµs", outage.maxIval)
		}
		if burst.minIval != maxUs {
			log.Fatalf("repair sped up under foreground load: %dµs", burst.minIval)
		}
		if idle.minIval != minUs {
			log.Fatalf("repair never reached full speed when idle: %dµs", idle.minIval)
		}
		lost, restored, ok := d.Hermes().RedundancyWindow()
		if !ok {
			log.Fatal("redundancy window never closed")
		}
		fmt.Printf("full redundancy restored %v after the crash (window %v -> %v)\n",
			restored-lost, lost, restored)
		_ = d.Shutdown(p)
	})
	if err := c.Engine.Run(); err != nil {
		log.Fatal(err)
	}
}
