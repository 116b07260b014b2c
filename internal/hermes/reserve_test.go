package hermes

import (
	"fmt"
	"strings"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

// A new copy's bytes are reserved on the target its placement walk picked
// before the first yield (the fabric transfer), so a second writer's walk
// sees the room taken, and the reservation outlives the write's retries.

const onePage = 4096

// onePageDRAM returns a store over nodes whose DRAM tier holds one page.
func onePageDRAM(nodes int) (*cluster.Cluster, *Hermes) {
	c := cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 4,
		DRAMPer:  onePage,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(onePage)},
			{Name: "nvme", Profile: device.NVMeProfile(device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
	return c, New(c, []string{"dram", "nvme"})
}

// auditAtRest fails the test with the store's findings once no process is
// in flight: the audit then also checks that no device holds a
// reservation.
func auditAtRest(t *testing.T, h *Hermes) {
	t.Helper()
	if bad := h.CheckIntegrity(); len(bad) != 0 {
		t.Errorf("integrity:\n%s", strings.Join(bad, "\n"))
	}
}

// TestOverlappingPutsReserveBeforeTheFabric: two Puts from node 1 that
// prefer node 0 start at one vtime, and node 0's DRAM holds one page.
// Their keys' metadata lives on node 1, so both walks run before either
// Put first yields, on the transfer. Both used to pick that page, and the
// second write to fail with ErrNoSpace; the second walk now finds the
// page reserved and picks node 0's NVMe.
func TestOverlappingPutsReserveBeforeTheFabric(t *testing.T) {
	c, h := onePageDRAM(2)
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("k%d", i); h.shardOwner(h.Key(k)) == 1 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		id := h.Key(k)
		c.Engine.Spawn("put", func(p *vtime.Proc) {
			if err := h.Put(p, 1, id, make([]byte, onePage), 0.5, 0); err != nil {
				t.Errorf("Put %q: %v", k, err)
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]bool{}
	for _, k := range keys {
		pl, ok := h.PlacementOf(h.Key(k))
		if !ok || pl.Node != 0 {
			t.Fatalf("%q placed %+v (ok %v), want on node 0", k, pl, ok)
		}
		tiers[pl.Tier] = true
	}
	if !tiers["dram"] || !tiers["nvme"] {
		t.Errorf("tiers used %v, want one page in DRAM and the other in NVMe", tiers)
	}
	auditAtRest(t, h)
}

// TestFailedWriteHoldsItsRoomUntilItGivesUp: a Put whose writes to node
// 0's DRAM all fail keeps that page reserved through its retries'
// backoff, so a Put arriving meanwhile lands on NVMe instead of on the
// faulty page, and the first Put's hold is released once it gives up.
func TestFailedWriteHoldsItsRoomUntilItGivesUp(t *testing.T) {
	c, h := onePageDRAM(2)
	c.InstallFaults(faults.Plan{
		Devices: []faults.DeviceFault{{Node: 0, Tier: "dram", WriteErr: 1}},
		Retry:   faults.Policy{Attempts: 3, Base: 50 * vtime.Microsecond},
	})
	dram := c.Nodes[0].Devices["dram"]
	c.Engine.Spawn("failing", func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("failing"), make([]byte, onePage), 0.5, 0); !faults.Transient(err) {
			t.Errorf("Put onto a failing device returned %v, want its transient error", err)
		}
		if dram.Held() != 0 {
			t.Errorf("node0/dram holds %d bytes after the Put gave up, want 0", dram.Held())
		}
	})
	c.Engine.Spawn("later", func(p *vtime.Proc) {
		p.Sleep(10 * vtime.Microsecond) // inside the first Put's backoff
		if dram.Held() != onePage {
			t.Errorf("node0/dram holds %d bytes during the failing Put's backoff, want %d", dram.Held(), onePage)
		}
		if err := h.Put(p, 0, h.Key("later"), make([]byte, onePage), 0.5, 0); err != nil {
			t.Errorf("Put beside a held page: %v", err)
		}
		if pl, _ := h.PlacementOf(h.Key("later")); pl.Tier != "nvme" {
			t.Errorf("later Put placed on %s, want nvme", pl.Tier)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	auditAtRest(t, h)
}

// TestAuditFindsALeakedReservation: a hold that no write consumed and no
// one released is named, device and bytes, by the audit at rest, and the
// audit is clean again once it is released.
func TestAuditFindsALeakedReservation(t *testing.T) {
	c, h := onePageDRAM(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("stored"), make([]byte, onePage), 0.5, 0); err != nil {
			t.Fatal(err)
		}
	})
	nvme := c.Nodes[1].Devices["nvme"]
	held, err := nvme.Reserve(h.Key("leaked"), 100)
	if err != nil {
		t.Fatal(err)
	}
	want := "device node1/nvme holds a reservation of 100 bytes with no process in flight"
	if bad := h.CheckIntegrity(); len(bad) != 1 || bad[0] != want {
		t.Errorf("audit with a leaked hold = %q, want [%q]", bad, want)
	}
	nvme.Unreserve(&held)
	auditAtRest(t, h)
}

// TestEndedPutGivesItsHoldBack: a Put ended while its bytes cross the
// fabric (a daemon at shutdown) gives back the page it reserved, and
// leaves no record behind.
func TestEndedPutGivesItsHoldBack(t *testing.T) {
	c, h := onePageDRAM(2)
	dram := c.Nodes[0].Devices["dram"]
	c.Engine.SpawnDaemon("put", func(p *vtime.Proc) {
		h.Put(p, 1, h.Key("ended"), make([]byte, onePage), 0.5, 0)
	})
	c.Engine.Spawn("main", func(p *vtime.Proc) {
		for dram.Held() == 0 {
			p.Sleep(vtime.Nanosecond)
		}
	})
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if dram.Held() != 0 || dram.Used() != 0 {
		t.Errorf("node0/dram holds %d and stores %d bytes after the Put was ended, want 0, 0", dram.Held(), dram.Used())
	}
	if _, ok := h.PlacementOf(h.Key("ended")); ok {
		t.Error("the ended Put left a placement")
	}
	auditAtRest(t, h)
}
