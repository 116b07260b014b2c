package simnet

import (
	"fmt"
	"testing"

	"megammap/internal/vtime"
)

func elapsed(t *testing.T, fn func(e *vtime.Engine, done func(vtime.Duration))) vtime.Duration {
	t.Helper()
	e := vtime.NewEngine()
	var total vtime.Duration
	fn(e, func(d vtime.Duration) {
		if d > total {
			total = d
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return total
}

func TestTransferCost(t *testing.T) {
	f := New(2, RoCE40())
	got := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("xfer", func(p *vtime.Proc) {
			f.Transfer(p, 0, 1, 5e9) // 5 GB over 5 GB/s
			done(p.Now())
		})
	})
	// Wire time 1s charged at egress and ingress plus small latency.
	if got < 2*vtime.Second || got > 2*vtime.Second+vtime.Millisecond {
		t.Errorf("5GB transfer took %v, want ~2s (store-and-forward)", got)
	}
}

func TestLocalTransferIsCheap(t *testing.T) {
	f := New(2, RoCE40())
	got := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("local", func(p *vtime.Proc) {
			f.Transfer(p, 1, 1, 1e9)
			done(p.Now())
		})
	})
	if got > vtime.Millisecond {
		t.Errorf("intra-node transfer took %v, want ~PerMsg", got)
	}
}

func TestTCPSlowerThanRoCE(t *testing.T) {
	time := func(prof LinkProfile) vtime.Duration {
		f := New(2, prof)
		return elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
			e.Spawn("x", func(p *vtime.Proc) {
				f.Transfer(p, 0, 1, 100e6)
				done(p.Now())
			})
		})
	}
	roce, tcp := time(RoCE40()), time(TCP10())
	if tcp <= roce {
		t.Errorf("tcp (%v) should be slower than roce (%v)", tcp, roce)
	}
	ratio := float64(tcp) / float64(roce)
	if ratio < 3 || ratio > 5 {
		t.Errorf("tcp/roce bandwidth ratio = %.2f, want ~4 for large transfers", ratio)
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders to one receiver must take about twice as long as two
	// senders to distinct receivers.
	run := func(dsts [2]int) vtime.Duration {
		f := New(3, RoCE40())
		return elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
			for i := 0; i < 2; i++ {
				src, dst := i, dsts[i]
				e.Spawn(fmt.Sprintf("s%d", i), func(p *vtime.Proc) {
					f.Transfer(p, src, dst, 1e9)
					done(p.Now())
				})
			}
		})
	}
	shared := run([2]int{2, 2})
	disjoint := run([2]int{2, 1})
	// Senders 0,1 are distinct so egress never contends; only ingress does.
	// Store-and-forward pipelines, so the shared case pays exactly one
	// extra wire time (the second flow queues at the ingress).
	wire := vtime.BytesAt(1e9, RoCE40().Bandwidth)
	if shared <= disjoint {
		t.Errorf("shared-ingress %v should exceed disjoint %v", shared, disjoint)
	}
	if got, want := shared-disjoint, wire; got < want*9/10 || got > want*11/10 {
		t.Errorf("ingress queueing penalty = %v, want ~%v", got, want)
	}
}

func TestDisjointPairsParallel(t *testing.T) {
	f := New(4, RoCE40())
	single := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("x", func(p *vtime.Proc) {
			f.Transfer(p, 0, 1, 1e9)
			done(p.Now())
		})
	})
	f2 := New(4, RoCE40())
	both := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("a", func(p *vtime.Proc) { f2.Transfer(p, 0, 1, 1e9); done(p.Now()) })
		e.Spawn("b", func(p *vtime.Proc) { f2.Transfer(p, 2, 3, 1e9); done(p.Now()) })
	})
	if both > single+vtime.Millisecond {
		t.Errorf("disjoint transfers did not overlap: both=%v single=%v", both, single)
	}
}

func TestRoundTrip(t *testing.T) {
	f := New(2, RoCE40())
	got := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("rt", func(p *vtime.Proc) {
			f.RoundTrip(p, 0, 1)
			done(p.Now())
		})
	})
	want := 2 * (RoCE40().Latency + RoCE40().PerMsg)
	if got != want {
		t.Errorf("roundtrip = %v, want %v", got, want)
	}
}

func TestStats(t *testing.T) {
	f := New(2, RoCE40())
	elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("x", func(p *vtime.Proc) {
			f.Transfer(p, 0, 1, 1000)
			f.Transfer(p, 1, 0, 500)
		})
	})
	msgs, bytes := f.Stats()
	if msgs != 2 || bytes != 1500 {
		t.Errorf("stats = %d msgs %d bytes, want 2/1500", msgs, bytes)
	}
}

func TestBadNodePanics(t *testing.T) {
	f := New(2, RoCE40())
	e := vtime.NewEngine()
	e.Spawn("bad", func(p *vtime.Proc) { f.Transfer(p, 0, 5, 10) })
	if err := e.Run(); err == nil {
		t.Error("expected panic error for out-of-range node")
	}
}

func TestFabricAccessors(t *testing.T) {
	f := New(3, RoCE40())
	if f.Nodes() != 3 {
		t.Errorf("Nodes = %d", f.Nodes())
	}
	if f.Profile().Bandwidth != RoCE40().Bandwidth {
		t.Error("Profile mismatch")
	}
}

func TestRoundTripLocalVsRemote(t *testing.T) {
	f := New(2, RoCE40())
	local := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("rt", func(p *vtime.Proc) {
			f.RoundTrip(p, 0, 0)
			done(p.Now())
		})
	})
	remote := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
		e.Spawn("rt", func(p *vtime.Proc) {
			f.RoundTrip(p, 0, 1)
			done(p.Now())
		})
	})
	if local >= remote {
		t.Errorf("same-node round trip (%v) should be cheaper than remote (%v)", local, remote)
	}
	if remote != 2*(RoCE40().Latency+RoCE40().PerMsg) {
		t.Errorf("remote RTT = %v", remote)
	}
}

// TestSaturatedLinkDeliversNominalBandwidth: k n-byte transfers queued at
// once on one link leave the sender back to back, each holding its egress
// for PerMsg + n/BW, and the last lands one latency and one ingress wire
// time after it leaves: k·(PerMsg + n/BW) + Latency + n/BW, whatever the
// profile and size.
func TestSaturatedLinkDeliversNominalBandwidth(t *testing.T) {
	for _, prof := range []LinkProfile{RoCE40(), TCP10()} {
		for _, n := range []int64{4 << 10, 1 << 20, 64 << 20} {
			for _, k := range []int{1, 2, 8, 32} {
				f := New(2, prof)
				got := elapsed(t, func(e *vtime.Engine, done func(vtime.Duration)) {
					for i := 0; i < k; i++ {
						e.Spawn(fmt.Sprintf("x%d", i), func(p *vtime.Proc) {
							f.Transfer(p, 0, 1, n)
							done(p.Now())
						})
					}
				})
				wire := vtime.BytesAt(n, prof.Bandwidth)
				if want := vtime.Duration(k)*(prof.PerMsg+wire) + prof.Latency + wire; got != want {
					t.Errorf("%s: %d transfers of %d bytes end at %v, want k·(PerMsg + n/BW) + Latency + n/BW = %v",
						prof.Name, k, n, got, want)
				}
			}
		}
	}
}
