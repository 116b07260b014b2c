package hermes

// Hedged-read and quarantine-placement unit tests: the race mechanics,
// the CRC verify gate, the hedge-cost accounting identity
// (launched = won + wasted), the bias-0-equals-today placement oracle,
// and the telemetry export surface for the new counters.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"megammap/internal/blob"
	"megammap/internal/cluster"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// hedgeSetup puts one replicated blob, marks its primary suspect and
// slow, and arms hedging. Returns the primary node and a reader node
// holding no copy of the blob.
func hedgeSetup(t *testing.T, c *cluster.Cluster, h *Hermes, p *vtime.Proc, data []byte, slowFactor float64) (pri, reader int) {
	t.Helper()
	if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	pl, ok := h.PlacementOf(h.Key("v/0"))
	if !ok {
		t.Fatal("primary missing")
	}
	bp, ok := h.PlacementOf(h.Key("v/0").Backup(0))
	if !ok {
		t.Fatal("backup missing")
	}
	for reader = 0; reader == pl.Node || reader == bp.Node; reader++ {
	}
	if slowFactor > 1 {
		c.InstallFaults(faults.Plan{Seed: 1, Devices: []faults.DeviceFault{
			{Node: pl.Node, SlowFactor: slowFactor},
		}})
	}
	h.SetSuspect(pl.Node, true)
	return pl.Node, reader
}

func TestHedgedReadWinsAgainstSlowPrimary(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{9}, 4096)
		_, reader := hedgeSetup(t, c, h, p, data, 1000)
		h.SetHedge(5*vtime.Microsecond, nil)
		got, ok, err := h.Get(p, reader, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("hedged get = %v bytes, ok=%v, err=%v", len(got), ok, err)
		}
	})
	inj := c.Faults()
	if inj.Count("hedge.launched") != 1 {
		t.Errorf("hedge.launched = %d, want 1", inj.Count("hedge.launched"))
	}
	if h.hedgesWon() != 1 || h.hedgesWasted() != 0 {
		t.Errorf("won/wasted = %d/%d, want 1/0 (backup must beat a 1000x primary)",
			h.hedgesWon(), h.hedgesWasted())
	}
}

func TestHedgeNotLaunchedWhenPrimaryAnswersInTime(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{3}, 1024)
		// Suspect but not actually slow: the primary answers well inside a
		// generous hedge delay, so the backup leg never launches.
		_, reader := hedgeSetup(t, c, h, p, data, 1)
		h.SetHedge(10*vtime.Millisecond, nil)
		got, ok, err := h.Get(p, reader, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("get = %v bytes, ok=%v, err=%v", len(got), ok, err)
		}
	})
	if n := c.Faults().Count("hedge.launched"); n != 0 {
		t.Errorf("hedge launched %d times against a fast primary", n)
	}
}

func TestHedgeVerifyGatesBackupWins(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{7}, 4096)
		_, reader := hedgeSetup(t, c, h, p, data, 1000)
		// A verifier that rejects everything: the backup may never win, so
		// the caller waits out the slow primary and still gets its bytes.
		h.SetHedge(5*vtime.Microsecond, func(id blob.ID, b []byte) bool { return false })
		got, ok, err := h.Get(p, reader, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("get = %v bytes, ok=%v, err=%v", len(got), ok, err)
		}
	})
	inj := c.Faults()
	if inj.Count("hedge.launched") != 1 || inj.Count("hedge.verify_fail") != 1 {
		t.Errorf("launched/verify_fail = %d/%d, want 1/1",
			inj.Count("hedge.launched"), inj.Count("hedge.verify_fail"))
	}
	if h.hedgesWon() != 0 || h.hedgesWasted() != 1 {
		t.Errorf("won/wasted = %d/%d, want 0/1", h.hedgesWon(), h.hedgesWasted())
	}
}

func TestHedgeSkippedWithoutBackupReplica(t *testing.T) {
	c, h := newHermes(3) // replicas 0: no backup to hedge to
	run(t, c, func(p *vtime.Proc) {
		data := []byte("unreplicated")
		if err := h.Put(p, 0, h.Key("v/0"), data, 1.0, 0); err != nil {
			t.Fatal(err)
		}
		pl, _ := h.PlacementOf(h.Key("v/0"))
		h.SetHedge(5*vtime.Microsecond, nil)
		h.SetSuspect(pl.Node, true)
		got, ok, err := h.Get(p, (pl.Node+1)%3, h.Key("v/0"))
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("get = %q, ok=%v, err=%v", got, ok, err)
		}
	})
	if n := c.Faults().Count("hedge.launched"); n != 0 {
		t.Errorf("hedge launched %d times with no backup replica", n)
	}
}

func TestHedgeAccountingIdentity(t *testing.T) {
	// Over a mixed batch of hedged reads, every launched leg must resolve
	// as exactly one of won or wasted.
	c, h := newHermes(3)
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{5}, 4096)
		pri, reader := hedgeSetup(t, c, h, p, data, 50)
		h.SetHedge(5*vtime.Microsecond, nil)
		for i := 0; i < 8; i++ {
			if _, ok, err := h.Get(p, reader, h.Key("v/0")); !ok || err != nil {
				t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
			}
			// Flip the verifier halfway so both outcomes occur.
			if i == 3 {
				h.SetHedge(5*vtime.Microsecond, func(blob.ID, []byte) bool { return false })
			}
		}
		h.SetSuspect(pri, false)
	})
	launched := c.Faults().Count("hedge.launched")
	if launched == 0 {
		t.Fatal("no hedges launched; the test exercised nothing")
	}
	if launched != h.hedgesWon()+h.hedgesWasted() {
		t.Errorf("accounting identity broken: launched %d != won %d + wasted %d",
			launched, h.hedgesWon(), h.hedgesWasted())
	}
}

// hedgesWon / hedgesWasted read the injector-mirrored counters so tests
// don't need a telemetry plane installed.
func (h *Hermes) hedgesWon() int64    { return h.inj.Count("hedge.won") }
func (h *Hermes) hedgesWasted() int64 { return h.inj.Count("hedge.wasted") }

func TestQuarantineBiasZeroMatchesTodayPlacement(t *testing.T) {
	// Scan oracle: with bias 0, a quarantined node must not change a
	// single placement decision. Run the same Put sequence on a control
	// instance and on one with node 1 quarantined at bias 0; every
	// primary and backup placement must match exactly.
	type key struct {
		node int
		tier string
	}
	placements := func(mod func(h *Hermes)) []key {
		c, h := newHermes(4)
		h.SetReplicas(1)
		if mod != nil {
			mod(h)
		}
		var out []key
		run(t, c, func(p *vtime.Proc) {
			// Enough traffic to spill across tiers and nodes: 96 x 64KB
			// against 1MB dram + 4MB nvme per node.
			data := bytes.Repeat([]byte{1}, 64<<10)
			for i := 0; i < 96; i++ {
				name := fmt.Sprintf("v/%d", i)
				if err := h.Put(p, i%4, h.Key(name), data, 1.0, 0); err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
				pl, _ := h.PlacementOf(h.Key(name))
				out = append(out, key{pl.Node, pl.Tier})
				if bp, ok := h.PlacementOf(h.Key(name).Backup(0)); ok {
					out = append(out, key{bp.Node, bp.Tier})
				}
			}
		})
		return out
	}
	control := placements(nil)
	biased := placements(func(h *Hermes) {
		h.SetQuarantineBias(0)
		h.SetQuarantined(1, true)
	})
	if len(control) != len(biased) {
		t.Fatalf("placement counts differ: %d vs %d", len(control), len(biased))
	}
	for i := range control {
		if control[i] != biased[i] {
			t.Fatalf("placement %d diverged with bias 0: %+v vs %+v", i, control[i], biased[i])
		}
	}
}

func TestQuarantineBiasAvoidsNodeUntilNothingElseFits(t *testing.T) {
	c, h := newHermes(3)
	h.SetReplicas(1)
	h.SetQuarantineBias(1)
	h.SetQuarantined(1, true)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{2}, 64<<10)
		// While the healthy nodes have room, nothing lands on node 1 —
		// even Puts that prefer it. (t.Errorf, not Fatal: Goexit inside a
		// spawned proc would deadlock the engine.)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("v/%d", i)
			if err := h.Put(p, 1, h.Key(name), data, 1.0, 0); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			pl, _ := h.PlacementOf(h.Key(name))
			if pl.Node == 1 {
				t.Errorf("put %d placed on the quarantined node", i)
				return
			}
			if bp, ok := h.PlacementOf(h.Key(name).Backup(0)); ok && bp.Node == 1 {
				t.Errorf("put %d backed up onto the quarantined node", i)
				return
			}
		}
		// Fill the healthy nodes: placement must fall back to node 1
		// rather than fail — capacity beats avoidance. 512KB blobs (plus a
		// backup each) exhaust the two healthy nodes' 42MB well inside the
		// loop bound.
		fallback := false
		big := bytes.Repeat([]byte{3}, 512<<10)
		for i := 8; i < 200; i++ {
			name := fmt.Sprintf("v/%d", i)
			if err := h.Put(p, 0, h.Key(name), big, 1.0, 0); err != nil {
				break // genuinely full everywhere
			}
			pl, _ := h.PlacementOf(h.Key(name))
			if pl.Node == 1 {
				fallback = true
				break
			}
		}
		if !fallback {
			t.Error("quarantined node never received the overflow fallback")
		}
	})
	if got := c.Faults().Count("quarantine.entered"); got != 1 {
		t.Errorf("quarantine.entered = %d, want 1", got)
	}
	h.SetQuarantined(1, false)
	h.SetQuarantined(1, false) // idempotent: no double count
	if got := c.Faults().Count("quarantine.exited"); got != 1 {
		t.Errorf("quarantine.exited = %d, want 1", got)
	}
}

func TestHedgeAndQuarantineTelemetryExport(t *testing.T) {
	// Export contract: hedge and quarantine events are injector notes, so
	// each surfaces as exactly one row, under subsystem faults (with the
	// retry.* rows), and hermes exports no copy of its own. The hedge-wait
	// histogram (with interpolated p50/p99 columns) is hermes's.
	c := testCluster(3)
	tel := c.InstallTelemetry(telemetry.Options{Metrics: true})
	h := New(c, []string{"dram", "nvme", "hdd"})
	h.SetReplicas(1)
	run(t, c, func(p *vtime.Proc) {
		data := bytes.Repeat([]byte{8}, 4096)
		_, reader := hedgeSetup(t, c, h, p, data, 1000)
		h.SetHedge(5*vtime.Microsecond, nil)
		if _, ok, err := h.Get(p, reader, h.Key("v/0")); !ok || err != nil {
			t.Fatalf("hedged get: ok=%v err=%v", ok, err)
		}
		c.Faults().Backoff(p, "retry.scache_read", 1)
	})
	h.SetQuarantined(2, true)
	h.SetQuarantined(2, false)

	var buf bytes.Buffer
	if err := tel.MetricsTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		"hedge.launched,counter,-1,faults,,1",
		"hedge.won,counter,-1,faults,,1",
		"quarantine.entered,counter,-1,faults,,1",
		"quarantine.exited,counter,-1,faults,,1",
		"retry.scache_read,counter,-1,faults,",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics CSV missing %q:\n%s", want, metrics)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if (strings.HasPrefix(line, "hedge.") || strings.HasPrefix(line, "quarantine.")) &&
			!strings.Contains(line, ",faults,") {
			t.Errorf("event exported outside subsystem faults: %q", line)
		}
	}

	buf.Reset()
	if err := tel.HistogramsTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	hists := buf.String()
	var cnt, p50, p99 int64
	for _, line := range strings.Split(hists, "\n") {
		if !strings.HasPrefix(line, "hermes.hedge_wait_ns,") {
			continue
		}
		f := strings.Split(line, ",")
		// metric,node,subsystem,tier,count,mean_ns,p50_ns,p99_ns,...
		fmt.Sscan(f[4], &cnt)
		fmt.Sscan(f[6], &p50)
		fmt.Sscan(f[7], &p99)
	}
	if cnt != 1 || p50 <= 0 || p99 < p50 {
		t.Errorf("hedge-wait histogram row wrong (count=%d p50=%d p99=%d):\n%s", cnt, p50, p99, hists)
	}
}
