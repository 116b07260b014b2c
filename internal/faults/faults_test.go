package faults

import (
	"errors"
	"fmt"
	"testing"

	"megammap/internal/vtime"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Error("different seeds collided on first draw")
	}
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", f)
		}
	}
}

func TestTransient(t *testing.T) {
	devErr := &DeviceError{Device: "node0/nvme", Op: "read"}
	if !Transient(devErr) {
		t.Error("DeviceError not transient")
	}
	if !Transient(fmt.Errorf("wrapped: %w", devErr)) {
		t.Error("wrapped DeviceError not transient")
	}
	if Transient(ErrNodeDown) {
		t.Error("ErrNodeDown classified transient")
	}
	if Transient(fmt.Errorf("blob gone: %w", ErrNodeDown)) {
		t.Error("wrapped ErrNodeDown classified transient")
	}
	if Transient(nil) || Transient(errors.New("other")) {
		t.Error("non-fault errors classified transient")
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	if eff := in.NetMessage(0, 1); eff != (NetEffect{}) {
		t.Errorf("nil NetMessage = %+v", eff)
	}
	if err := in.DeviceRead(0, "nvme"); err != nil {
		t.Error("nil DeviceRead errored")
	}
	if err := in.DeviceWrite(0, "nvme"); err != nil {
		t.Error("nil DeviceWrite errored")
	}
	if s := in.DeviceSlowdown(0, "nvme"); s != 1 {
		t.Errorf("nil slowdown = %v", s)
	}
	if in.Crashed(0) {
		t.Error("nil injector reports crashes")
	}
	if !in.Allow(1) || in.Allow(DefaultPolicy().Attempts) {
		t.Error("nil Allow does not follow default policy")
	}
	if in.Count("x") != 0 || in.Counters() != nil {
		t.Error("nil counters not empty")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{
		Seed: 9,
		Links: []LinkFault{{Src: AnyNode, Dst: AnyNode, Drop: 0.3, Dup: 0.2,
			DelayProb: 0.5, DelaySpike: 100 * vtime.Microsecond}},
		Devices: []DeviceFault{{Node: AnyNode, ReadErr: 0.25, WriteErr: 0.25}},
	}
	run := func() []Counter {
		in := NewInjector(plan, func() vtime.Duration { return 0 })
		for i := 0; i < 500; i++ {
			in.NetMessage(0, 1)
			in.DeviceRead(0, "nvme")
			in.DeviceWrite(1, "dram")
		}
		return in.Counters()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired at these probabilities")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different counters:\n%v\n%v", a, b)
	}
}

func TestPartitionHold(t *testing.T) {
	plan := Plan{Seed: 1, Partitions: []Partition{{Src: 0, Dst: 1, From: 10, To: 20}}}
	now := vtime.Duration(0)
	in := NewInjector(plan, func() vtime.Duration { return now })
	if eff := in.NetMessage(0, 1); eff.HoldUntil != 0 {
		t.Errorf("partition active before From: %+v", eff)
	}
	now = 15
	if eff := in.NetMessage(1, 0); eff.HoldUntil != 20 {
		t.Errorf("partition (reverse direction) HoldUntil = %v, want 20", eff.HoldUntil)
	}
	if eff := in.NetMessage(0, 2); eff.HoldUntil != 0 {
		t.Errorf("partition leaked to unmatched link: %+v", eff)
	}
	now = 20
	if eff := in.NetMessage(0, 1); eff.HoldUntil != 0 {
		t.Errorf("partition active at To: %+v", eff)
	}
	if in.Count("net.partition") != 1 {
		t.Errorf("partition counter = %d, want 1", in.Count("net.partition"))
	}
}

func TestDeviceSlowdown(t *testing.T) {
	plan := Plan{Seed: 1, Devices: []DeviceFault{{Node: 2, Tier: "nvme", SlowFactor: 4, SlowFrom: 100}}}
	now := vtime.Duration(0)
	in := NewInjector(plan, func() vtime.Duration { return now })
	if s := in.DeviceSlowdown(2, "nvme"); s != 1 {
		t.Errorf("slowdown before SlowFrom = %v", s)
	}
	now = 100
	if s := in.DeviceSlowdown(2, "nvme"); s != 4 {
		t.Errorf("slowdown = %v, want 4", s)
	}
	if s := in.DeviceSlowdown(2, "hdd"); s != 1 {
		t.Errorf("slowdown leaked to other tier: %v", s)
	}
	if s := in.DeviceSlowdown(1, "nvme"); s != 1 {
		t.Errorf("slowdown leaked to other node: %v", s)
	}
}

func TestCrashCallbacks(t *testing.T) {
	in := NewInjector(Plan{Seed: 1}, func() vtime.Duration { return 0 })
	var fired []int
	in.OnCrash(func(n int) { fired = append(fired, n) })
	in.CrashNode(2)
	in.CrashNode(2) // idempotent
	if !in.Crashed(2) || in.Crashed(1) {
		t.Error("Crashed state wrong")
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Errorf("callbacks fired = %v", fired)
	}
	if in.Count("crash") != 1 {
		t.Errorf("crash counter = %d", in.Count("crash"))
	}
}

func TestBackoffAndDo(t *testing.T) {
	e := vtime.NewEngine()
	plan := Plan{Seed: 1, Retry: Policy{Attempts: 3, Base: 100, Cap: 400, Jitter: 0}}
	in := NewInjector(plan, e.Now)
	var elapsed vtime.Duration
	e.Spawn("t", func(p *vtime.Proc) {
		start := e.Now()
		in.Backoff(p, "retry.test", 1) // 100
		in.Backoff(p, "retry.test", 2) // 200
		in.Backoff(p, "retry.test", 3) // 400
		in.Backoff(p, "retry.test", 9) // capped at 400
		elapsed = e.Now() - start

		calls := 0
		err := in.Do(p, "retry.do", func() error {
			calls++
			if calls < 3 {
				return &DeviceError{Device: "x", Op: "read"}
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("Do: err=%v calls=%d", err, calls)
		}
		calls = 0
		err = in.Do(p, "retry.do", func() error {
			calls++
			return &DeviceError{Device: "x", Op: "read"}
		})
		if !Transient(err) || calls != 3 {
			t.Errorf("exhausted Do: err=%v calls=%d (want transient after 3)", err, calls)
		}
		err = in.Do(p, "retry.do", func() error { return ErrNodeDown })
		if !errors.Is(err, ErrNodeDown) {
			t.Errorf("permanent Do: err=%v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 100+200+400+400 {
		t.Errorf("backoff elapsed = %v, want 1100", elapsed)
	}
	if in.Count("retry.test") != 4 {
		t.Errorf("retry.test counter = %d", in.Count("retry.test"))
	}
}

func TestDropCapped(t *testing.T) {
	plan := Plan{Seed: 1, Links: []LinkFault{{Src: AnyNode, Dst: AnyNode, Drop: 1}}}
	in := NewInjector(plan, func() vtime.Duration { return 0 })
	eff := in.NetMessage(0, 1)
	if eff.Resend != maxResends {
		t.Errorf("Resend = %d, want cap %d", eff.Resend, maxResends)
	}
}
