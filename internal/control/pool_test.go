package control

import "testing"

// The governor must hold off PoolHoldTicks windows before flipping, flip
// on sustained spill pressure, and revert when pool traffic queues past
// the threshold for the hold again.
func TestPoolPlaneHysteresis(t *testing.T) {
	var g PoolPlane
	hot := PoolSignals{SpillFrac: 0.8}
	if a := g.Step(hot); a.PreferPool || a.Changed {
		t.Fatalf("flipped after one hot window: %+v", a)
	}
	if a := g.Step(hot); !a.PreferPool || !a.Changed {
		t.Fatalf("did not flip after PoolHoldTicks hot windows: %+v", a)
	}
	// Mid-band pressure holds the bias (hysteresis).
	if a := g.Step(PoolSignals{SpillFrac: 0.2}); !a.PreferPool || a.Changed {
		t.Fatalf("mid-band window moved the bias: %+v", a)
	}
	// Congested pool fabric reverts after the hold.
	congested := PoolSignals{SpillFrac: 0.8, PoolQueued: PoolQueueHigh + 1}
	g.Step(congested)
	if a := g.Step(congested); a.PreferPool || !a.Changed {
		t.Fatalf("did not revert under pool-NIC congestion: %+v", a)
	}
}

// A streak broken by one clean window starts over.
func TestPoolPlaneDebounceResets(t *testing.T) {
	var g PoolPlane
	hot, cool := PoolSignals{SpillFrac: 0.9}, PoolSignals{SpillFrac: 0.01}
	g.Step(hot)
	g.Step(cool) // breaks the streak
	if a := g.Step(hot); a.Changed {
		t.Fatalf("flipped on a streak the cool window broke: %+v", a)
	}
	if a := g.Step(hot); !a.Changed {
		t.Fatalf("streak did not complete after reset: %+v", a)
	}
}

// Nearly full pools repel the bias even under spill pressure.
func TestPoolPlaneFullPoolBlocks(t *testing.T) {
	var g PoolPlane
	full := PoolSignals{SpillFrac: 0.9, PoolUsedFrac: 0.95}
	for range PoolHoldTicks {
		if a := g.Step(full); a.PreferPool {
			t.Fatalf("biased toward a full pool: %+v", a)
		}
	}
	roomy := PoolSignals{SpillFrac: 0.9, PoolUsedFrac: 0.5}
	for range PoolHoldTicks {
		g.Step(roomy)
	}
	if !g.prefer {
		t.Fatal("did not bias with pool headroom")
	}
	for range PoolHoldTicks {
		g.Step(full)
	}
	if g.prefer {
		t.Fatal("kept the bias on a full pool")
	}
}
