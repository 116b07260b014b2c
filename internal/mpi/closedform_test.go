package mpi

import (
	"fmt"
	"math/bits"
	"testing"

	"megammap/internal/vtime"
)

// The collectives' virtual cost against closed forms, with one rank per
// node on an otherwise idle fabric. One round is what simnet charges for
// one m-byte message on an idle link: the sender's egress for PerMsg plus
// the wire time w, the latency, then the receiver's ingress for w again,
// so R = PerMsg + Latency + 2w.
//
//   - Barrier (dissemination) ends after L = ⌈log₂ n⌉ rounds: in every
//     round each rank sends one message and receives one, so no NIC is
//     shared within a round and a round's messages have all left their
//     ingress before the next round's reach theirs.
//   - Bcast ends after L rounds: the root sends to its L children one
//     after another, and every other rank receives once, so the root's
//     sends are the critical path.
//   - Reduce does not follow ⌈log₂ n⌉ when n is not a power of two. A
//     rank's message reaches the root in as many hops as its virtual rank
//     has set bits, so the tree is ⌊log₂ n⌋ deep; and the root's children
//     head subtrees of min(m, n−m) ranks (child at mask m), so two of
//     them can finish together and send to the root at once, where the
//     second waits one wire time w for the root's ingress. reduceTime is
//     that recursion; it gives R, R+w, 2R, 2R, 3R and 4R at n = 2, 3, 4,
//     5, 8 and 16 (⌈log₂ n⌉ would say 2R at 3 and 3R at 5).
//   - Allreduce is Reduce to rank 0 then Bcast from it, and its last rank
//     returns after reduceTime(n) + L rounds: every reduce message is in
//     before the root starts the broadcast. At a power of two that is
//     2⌈log₂ n⌉ rounds.

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int { return bits.Len(uint(n - 1)) }

// reduceTime is Reduce's virtual time over n ranks at round R and wire
// time w: the root's child at mask m reduces its min(m, n−m) ranks, then
// its message arrives one round later; messages arriving together queue
// at the root's ingress, one wire time each.
func reduceTime(n int, round, wire vtime.Duration) vtime.Duration {
	queued := map[vtime.Duration]vtime.Duration{} // arrivals so far at each instant
	var end vtime.Duration
	for m := 1; m < n; m <<= 1 {
		at := reduceTime(min(m, n-m), round, wire) + round
		end = max(end, at+queued[at]*wire)
		queued[at]++
	}
	return end
}

// lastReturn runs body on one rank per node and returns the latest
// virtual time at which a rank returned from it.
func lastReturn(t *testing.T, n int, body func(r *Rank)) vtime.Duration {
	t.Helper()
	w := testWorld(t, n, n)
	var last vtime.Duration
	err := w.Run(func(r *Rank) {
		body(r)
		last = max(last, r.Proc().Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	return last
}

// closedForm is one collective and the virtual time it must end at.
type closedForm struct {
	name string
	want vtime.Duration
	body func(r *Rank)
}

func TestCollectivesMatchClosedForms(t *testing.T) {
	prof := testWorld(t, 2, 2).Cluster().Fabric.Profile()
	sum := func(a, b any) any { return a.(int) + b.(int) }
	for _, n := range []int{2, 3, 4, 5, 8, 16} {
		L := vtime.Duration(ceilLog2(n))
		for _, m := range []int64{8, 1 << 20} {
			wire := vtime.BytesAt(m, prof.Bandwidth)
			round := prof.PerMsg + prof.Latency + 2*wire
			red := reduceTime(n, round, wire)
			cases := []closedForm{
				{"Bcast", L * round, func(r *Rank) { r.Bcast(0, r.Rank(), m) }},
				{"Reduce", red, func(r *Rank) { r.Reduce(0, r.Rank(), m, sum) }},
				{"Allreduce", red + L*round, func(r *Rank) { r.Allreduce(r.Rank(), m, sum) }},
				{"AllreduceFloat64s", red + L*round, func(r *Rank) { r.SumFloat64s(make([]float64, m/8)) }},
			}
			if m == 8 {
				cases = append(cases,
					closedForm{"Barrier", L * round, func(r *Rank) { r.Barrier() }},
					closedForm{"SumFloat64", red + L*round, func(r *Rank) { r.SumFloat64(1) }})
			}
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/n=%d/m=%d", c.name, n, m), func(t *testing.T) {
					if got := lastReturn(t, n, c.body); got != c.want {
						t.Errorf("ended at %v, want %v (round %v, wire %v)", got, c.want, round, wire)
					}
				})
			}
		}
	}
}

// TestReduceTimeClosedForms pins reduceTime at the sizes the comment above
// names, so the recursion and its summary cannot drift apart.
func TestReduceTimeClosedForms(t *testing.T) {
	const R, w = 1000, 7
	want := map[int]vtime.Duration{2: R, 3: R + w, 4: 2 * R, 5: 2 * R, 8: 3 * R, 16: 4 * R}
	for n, d := range want {
		if got := reduceTime(n, R, w); got != d {
			t.Errorf("reduceTime(%d) = %v, want %v", n, got, d)
		}
	}
}
