package hermes

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/device"
	"megammap/internal/simnet"
	"megammap/internal/vtime"
)

func testCluster(nodes int) *cluster.Cluster {
	return cluster.New(cluster.Spec{
		Nodes:    nodes,
		CoresPer: 4,
		DRAMPer:  4 * device.MB,
		Tiers: []cluster.TierSpec{
			{Name: "dram", Profile: device.DRAMProfile(1 * device.MB)},
			{Name: "nvme", Profile: device.NVMeProfile(4 * device.MB)},
			{Name: "hdd", Profile: device.HDDProfile(16 * device.MB)},
		},
		Link: simnet.RoCE40(),
		PFS:  device.PFSProfile(device.GB),
	})
}

func newHermes(nodes int) (*cluster.Cluster, *Hermes) {
	c := testCluster(nodes)
	return c, New(c, []string{"dram", "nvme", "hdd"})
}

func run(t *testing.T, c *cluster.Cluster, fn func(p *vtime.Proc)) {
	t.Helper()
	c.Engine.Spawn("test", fn)
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		data := []byte("page contents")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		got, ok, _ := h.Get(p, 1, h.Key("v/0")) // remote get
		if !ok || !bytes.Equal(got, data) {
			t.Errorf("get = %q, %v", got, ok)
		}
		if !h.Has(p, 0, h.Key("v/0")) || h.Has(p, 0, h.Key("v/1")) {
			t.Error("Has gave wrong answers")
		}
	})
}

func TestHoldsIsByteExactOnAReachablePrimary(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		id := h.Key("v/0")
		data := []byte("page contents")
		if err := h.Put(p, 0, id, data, 1.0, 1); err != nil {
			t.Fatal(err)
		}
		lookups, _, _ := h.Stats()
		before := p.Now()
		cases := []struct {
			off   int64
			data  []byte
			whole bool
			want  bool
		}{
			{0, data, true, true},
			{0, data[:4], true, false}, // a prefix is not the whole blob
			{0, data[:4], false, true},
			{5, []byte("contents"), false, true},
			{5, []byte("Contents"), false, false},
			{5, []byte("contents!"), false, false},
		}
		for _, tc := range cases {
			if got := h.Holds(id, tc.off, tc.data, tc.whole); got != tc.want {
				t.Errorf("Holds(%d, %q, whole=%v) = %v, want %v", tc.off, tc.data, tc.whole, got, tc.want)
			}
		}
		if h.Holds(h.Key("v/1"), 0, nil, false) {
			t.Error("Holds found a missing blob")
		}
		if now, _, _ := h.Stats(); p.Now() != before || now != lookups {
			t.Error("Holds charged time or a metadata lookup")
		}
		// The crashed node's device still stores the bytes; they are not
		// the blob's any more.
		h.FailNode(1)
		if h.Holds(id, 0, data, true) {
			t.Error("Holds matched a primary on a crashed node")
		}
	})
}

func TestPlacementPrefersFastTierOnPreferredNode(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), make([]byte, 1000), 1.0, 1); err != nil {
			t.Fatal(err)
		}
		pl, ok := h.PlacementOf(h.Key("k"))
		if !ok || pl.Node != 1 || pl.Tier != "dram" {
			t.Errorf("placement = %+v, want node 1 tier dram", pl)
		}
	})
}

func TestOverflowSpillsDownTiers(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		// Fill DRAM (1MB), overflow must land on nvme.
		big := make([]byte, int(900*device.KB))
		if err := h.Put(p, 0, h.Key("a"), big, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("b"), big, 1, 0); err != nil {
			t.Fatal(err)
		}
		pa, _ := h.PlacementOf(h.Key("a"))
		pb, _ := h.PlacementOf(h.Key("b"))
		if pa.Tier != "dram" || pb.Tier != "nvme" {
			t.Errorf("tiers = %s,%s; want dram,nvme", pa.Tier, pb.Tier)
		}
	})
}

func TestOverflowSpillsToRemoteNode(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		big := make([]byte, int(900*device.KB))
		if err := h.Put(p, 0, h.Key("a"), big, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("b"), big, 1, 0); err != nil { // node0 dram full
			t.Fatal(err)
		}
		pb, _ := h.PlacementOf(h.Key("b"))
		// Remote DRAM beats local NVMe in the fastest-first sweep only
		// after the preferred node is exhausted entirely; preferred-node
		// NVMe wins here.
		if pb.Node != 0 || pb.Tier != "nvme" {
			t.Errorf("b placed %+v, want node0/nvme", pb)
		}
		// Fill node0 nvme+hdd, then the next put must go remote.
		if err := h.Put(p, 0, h.Key("c"), make([]byte, int(3*device.MB)), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("d"), make([]byte, int(15*device.MB)), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("e"), make([]byte, int(14*device.MB)), 1, 0); err != nil {
			t.Fatal(err)
		}
		pe, _ := h.PlacementOf(h.Key("e"))
		if pe.Node != 1 {
			t.Errorf("e placed %+v, want remote node 1", pe)
		}
	})
}

func TestNoCapacityError(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		err := h.Put(p, 0, h.Key("huge"), make([]byte, int(32*device.MB)), 1, 0)
		var nc *ErrNoCapacity
		if !errors.As(err, &nc) {
			t.Errorf("expected ErrNoCapacity, got %v", err)
		}
	})
}

// TestFailedRegrowLeavesNoRecord: a Put that frees the old copy to
// re-place a grown blob and then finds no room must not leave a placement
// pointing at the freed bytes (a later Put trusted its size and ran into
// the device's ErrNoSpace).
func TestFailedRegrowLeavesNoRecord(t *testing.T) {
	c := testCluster(1)
	h := New(c, []string{"dram"}) // one 1 MB tier
	run(t, c, func(p *vtime.Proc) {
		kb := func(n int) []byte { return bytes.Repeat([]byte{byte(n)}, n<<10) }
		filler, g := h.Key("filler"), h.Key("g")
		if err := h.Put(p, 0, filler, kb(600), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, g, kb(300), 1, 0); err != nil {
			t.Fatal(err)
		}
		var nc *ErrNoCapacity
		if err := h.Put(p, 0, g, kb(500), 1, 0); !errors.As(err, &nc) {
			t.Fatalf("growing past capacity: %v, want ErrNoCapacity", err)
		}
		if _, ok := h.PlacementOf(g); ok {
			t.Error("the failed Put left a placement for the freed blob")
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("after the failed Put: %v", bad)
		}
		// 400 KB are free: 450 would fit the stale record's arithmetic
		// (450-300 <= 400) but not the device.
		if err := h.Put(p, 0, g, kb(450), 1, 0); !errors.As(err, &nc) {
			t.Errorf("a Put that still does not fit: %v, want ErrNoCapacity", err)
		}
		h.Delete(p, 0, filler)
		want := kb(500)
		if err := h.Put(p, 0, g, want, 1, 0); err != nil {
			t.Fatalf("Put after space was freed: %v", err)
		}
		if got, ok, err := h.Get(p, 0, g); err != nil || !ok || !bytes.Equal(got, want) {
			t.Errorf("Get after the retried Put: ok=%v err=%v, %d bytes", ok, err, len(got))
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("after the retried Put: %v", bad)
		}
	})
}

func TestPutReplaceInPlace(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), []byte("aaaa"), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("k"), []byte("bb"), 1, 0); err != nil {
			t.Fatal(err)
		}
		got, _, _ := h.Get(p, 0, h.Key("k"))
		if string(got) != "bb" {
			t.Errorf("replace lost: %q", got)
		}
		pl, _ := h.PlacementOf(h.Key("k"))
		if pl.Size != 2 {
			t.Errorf("size = %d, want 2", pl.Size)
		}
	})
}

func TestPutAtPartialUpdate(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), []byte("0123456789"), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.PutAt(p, 0, h.Key("k"), 4, []byte("QQ")); err != nil {
			t.Fatal(err)
		}
		got, _, _ := h.Get(p, 0, h.Key("k"))
		if string(got) != "0123QQ6789" {
			t.Errorf("partial update = %q", got)
		}
		if err := h.PutAt(p, 0, h.Key("missing"), 0, []byte("x")); err == nil {
			t.Error("PutAt on missing blob should fail")
		}
	})
}

func TestDelete(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), []byte("x"), 1, 0); err != nil {
			t.Fatal(err)
		}
		h.Delete(p, 0, h.Key("k"))
		if _, ok, _ := h.Get(p, 0, h.Key("k")); ok {
			t.Error("blob survived delete")
		}
		if used := h.TierUsage()["dram"]; used != 0 {
			t.Errorf("dram still holds %d bytes", used)
		}
	})
}

func TestSetScoreTakesMax(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), []byte("x"), 0.4, 0); err != nil {
			t.Fatal(err)
		}
		h.SetScoreHint(p, 1, h.Key("k"), 0.9, false)
		h.SetScoreHint(p, 0, h.Key("k"), 0.2, false) // lower: ignored
		pl, _ := h.PlacementOf(h.Key("k"))
		if pl.Score != 0.9 || pl.ScoreNode != 1 {
			t.Errorf("score = %v from node %d, want 0.9 from 1", pl.Score, pl.ScoreNode)
		}
	})
}

func TestOrganizePromotesHotDemotesCold(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		big := make([]byte, int(600*device.KB))
		// Two blobs can't both fit in 1MB DRAM.
		if err := h.Put(p, 0, h.Key("hot"), big, 0.2, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("cold"), big, 0.1, 0); err != nil {
			t.Fatal(err)
		}
		// hot landed in dram, cold in nvme. Now invert the scores.
		h.SetScoreHint(p, 0, h.Key("hot"), 0.2, false)
		h.SetScoreHint(p, 0, h.Key("cold"), 0.95, false)
		h.Organize(p, 0)
		phot, _ := h.PlacementOf(h.Key("hot"))
		pcold, _ := h.PlacementOf(h.Key("cold"))
		if pcold.Tier != "dram" {
			t.Errorf("cold (now hot) tier = %s, want dram", pcold.Tier)
		}
		if phot.Tier != "nvme" {
			t.Errorf("hot (now cold) tier = %s, want nvme", phot.Tier)
		}
		got, _, _ := h.Get(p, 0, h.Key("cold"))
		if !bytes.Equal(got, big) {
			t.Error("organize corrupted blob contents")
		}
		// The re-pack is a one-shot: with the scores inverted again, the
		// next pass moves nothing.
		h.SetScoreHint(p, 0, h.Key("hot"), 1, false)
		_, before, _ := h.Stats()
		h.Organize(p, 0)
		if _, after, _ := h.Stats(); after != before {
			t.Errorf("a second pass re-packed %d blob(s)", after-before)
		}
	})
}

func TestOrganizeMigratesTowardScoreNode(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		// A higher-scored filler takes node 0's DRAM, so k lands on its NVMe
		// and the re-pack has nothing to promote.
		if err := h.Put(p, 0, h.Key("filler"), make([]byte, 900<<10), 1, 0); err != nil {
			t.Fatal(err)
		}
		k, data := h.Key("k"), bytes.Repeat([]byte{7}, 200<<10)
		if err := h.Put(p, 0, k, data, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		period := func(local bool) {
			h.SetScoreHint(p, 1, k, 0.95, local)
			h.Organize(p, 0)
			h.DecayScores(1)
		}
		// Node 1 wants k for three periods running, but its phase declared
		// Global or Collective access: k stays.
		for range 3 {
			period(false)
		}
		if pl, _ := h.PlacementOf(k); pl.Node != 0 || pl.Tier != "nvme" {
			t.Fatalf("after non-local hints k sits on node%d/%s, want node0/nvme", pl.Node, pl.Tier)
		}
		// Node 1's local phase wants it for two periods: it moves there,
		// laterally — onto the tier it held, though node 1's DRAM is empty.
		period(true)
		period(true)
		if pl, _ := h.PlacementOf(k); pl.Node != 1 || pl.Tier != "nvme" {
			t.Errorf("after local hints k sits on node%d/%s, want node1/nvme", pl.Node, pl.Tier)
		}
		if got, ok, err := h.Get(p, 1, k); err != nil || !ok || !bytes.Equal(got, data) {
			t.Errorf("Get after the move: ok=%v err=%v, bytes equal %v", ok, err, bytes.Equal(got, data))
		}
		if bad := h.CheckIntegrity(); len(bad) != 0 {
			t.Errorf("after the move: %v", bad)
		}
	})
}

func TestDecayScores(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key("k"), []byte("x"), 0.8, 0); err != nil {
			t.Fatal(err)
		}
		h.DecayScores(0.5)
		pl, _ := h.PlacementOf(h.Key("k"))
		if pl.Score != 0.4 {
			t.Errorf("score = %v, want 0.4", pl.Score)
		}
	})
}

func TestRemoteMetadataCostsMore(t *testing.T) {
	// A blob whose shard lives remotely must take longer to look up than
	// one owned locally.
	c, h := newHermes(4)
	var local, remote string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key%d", i)
		if h.shardOwner(h.Key(k)) == 0 && local == "" {
			local = k
		}
		if h.shardOwner(h.Key(k)) == 3 && remote == "" {
			remote = k
		}
		if local != "" && remote != "" {
			break
		}
	}
	var tLocal, tRemote vtime.Duration
	run(t, c, func(p *vtime.Proc) {
		if err := h.Put(p, 0, h.Key(local), []byte("x"), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key(remote), []byte("x"), 1, 0); err != nil {
			t.Fatal(err)
		}
		s := p.Now()
		h.Has(p, 0, h.Key(local))
		tLocal = p.Now() - s
		s = p.Now()
		h.Has(p, 0, h.Key(remote))
		tRemote = p.Now() - s
	})
	if tRemote <= tLocal {
		t.Errorf("remote lookup (%v) should cost more than local (%v)", tRemote, tLocal)
	}
}

func TestStatsCount(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		_ = h.Put(p, 0, h.Key("k"), []byte("x"), 1, 0)
		h.Get(p, 0, h.Key("k"))
	})
	lookups, _, _ := h.Stats()
	if lookups < 2 {
		t.Errorf("lookups = %d, want >= 2", lookups)
	}
}

func TestPutLocalRespectsNodeCapacity(t *testing.T) {
	c, h := newHermes(2)
	run(t, c, func(p *vtime.Proc) {
		// Fill node 1 entirely (1MB dram + 4MB nvme + 16MB hdd).
		if err := h.Put(p, 1, h.Key("fill1"), make([]byte, int(900*device.KB)), 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 1, h.Key("fill2"), make([]byte, int(3900*device.KB)), 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 1, h.Key("fill3"), make([]byte, int(15900*device.KB)), 1, 1); err != nil {
			t.Fatal(err)
		}
		// PutLocal on the full node must refuse rather than spill remotely.
		if ok := h.PutLocal(p, 1, h.Key("replica"), make([]byte, int(500*device.KB)), 0.4); ok {
			t.Error("PutLocal succeeded on a full node")
		}
		// On the empty node it lands in the fastest tier.
		if ok := h.PutLocal(p, 0, h.Key("replica"), []byte("r"), 0.4); !ok {
			t.Fatal("PutLocal failed on an empty node")
		}
		pl, _ := h.PlacementOf(h.Key("replica"))
		if pl.Node != 0 || pl.Tier != "dram" {
			t.Errorf("replica placed %+v, want node0/dram", pl)
		}
	})
}

func TestOrganizeBudgetCapsMovement(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		// Ten 200KB blobs land across dram+nvme; inverting all scores
		// wants ~everything moved, but a 300KB budget allows at most one
		// 200KB blob per pass.
		data := make([]byte, int(200*device.KB))
		for i := 0; i < 10; i++ {
			if err := h.Put(p, 0, h.Key(fmt.Sprintf("b%d", i)), data, float64(10-i)/10, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			h.SetScoreHint(p, 0, h.Key(fmt.Sprintf("b%d", i)), float64(i+1)/11, false)
		}
		_, movedBefore, _ := h.Stats()
		h.Organize(p, int64(300*device.KB))
		_, movedAfter, bytesMoved := h.Stats()
		if movedAfter-movedBefore > 1 {
			t.Errorf("budget exceeded: %d blobs moved", movedAfter-movedBefore)
		}
		if bytesMoved > int64(300*device.KB) {
			t.Errorf("bytes moved %d exceed budget", bytesMoved)
		}
	})
}

func TestOrganizeUnlimitedBudget(t *testing.T) {
	c, h := newHermes(1)
	run(t, c, func(p *vtime.Proc) {
		data := make([]byte, int(400*device.KB))
		if err := h.Put(p, 0, h.Key("a"), data, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("b"), data, 0.8, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Put(p, 0, h.Key("c"), data, 0.7, 0); err != nil { // spills to nvme
			t.Fatal(err)
		}
		// Already packed by score: the pass plans nothing, and a pass that
		// plans nothing leaves the one-shot re-pack armed.
		if moves := h.PlanOrganize(0); len(moves) != 0 {
			t.Fatalf("packed store: planned %+v", moves)
		}
		// Scores only rise via SetScoreHint; aging happens through decay.
		h.DecayScores(0.1)
		h.SetScoreHint(p, 0, h.Key("b"), 0.8, false)
		h.SetScoreHint(p, 0, h.Key("c"), 0.7, false)
		h.Organize(p, 0)
		pa, _ := h.PlacementOf(h.Key("a"))
		pc, _ := h.PlacementOf(h.Key("c"))
		if pa.Tier != "nvme" || pc.Tier != "dram" {
			t.Errorf("unbudgeted organize did not fully repack: a=%s c=%s", pa.Tier, pc.Tier)
		}
	})
}
