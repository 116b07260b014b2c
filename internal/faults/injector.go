package faults

import (
	"sort"
	"strings"

	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// maxResends caps injected retransmissions per message so a drop
// probability of 1.0 degrades the link instead of livelocking it.
const maxResends = 8

// NetEffect is what the injector decided for one message: retransmit it
// Resend extra times, add Delay on the wire, and hold it until HoldUntil
// if a partition covers the send time.
type NetEffect struct {
	Resend    int
	Delay     vtime.Duration
	HoldUntil vtime.Duration
}

// Injector executes a Plan against the virtual clock. All methods are
// nil-safe: a nil *Injector behaves as "no faults", so fault-aware call
// sites need no branching beyond the pointer check they already do.
//
// The engine runs one process at a time, so the injector needs no
// locking and its PRNG consumes draws in a deterministic order.
type Injector struct {
	plan     Plan
	rng      *Rand
	now      func() vtime.Duration
	crashed  map[int]bool
	onCrash  []func(node int)
	onRevive []func(node int)
	counters map[string]int64
	trc      *telemetry.Tracer // nil when no telemetry plane is installed

	// slowClearedAt records the revive time per node: sticky DeviceFault
	// slowdowns whose SlowFrom predates the revive are forgotten, because
	// a cold-restarted node gets fresh hardware, not its pre-crash wear.
	slowClearedAt map[int]vtime.Duration

	// reg mirrors fault/retry counters into a telemetry registry so the
	// CSV/JSON export carries retry.* alongside the subsystem metrics.
	reg     *telemetry.Registry
	regCtrs map[string]telemetry.Counter
}

// NewInjector builds an injector for plan. now reports the current
// virtual time (typically Engine.Now); retry-policy defaults are filled
// in here, and jitter rules with an unset probability default to 1.
func NewInjector(plan Plan, now func() vtime.Duration) *Injector {
	in := &Injector{
		now:           now,
		crashed:       make(map[int]bool),
		counters:      make(map[string]int64),
		slowClearedAt: make(map[int]vtime.Duration),
	}
	in.Reconfigure(plan)
	return in
}

// Reconfigure swaps the injector's plan in place, reseeding its PRNG
// from the new plan's seed. Registered crash/revive callbacks, counters,
// and telemetry wiring all survive, so layers that captured the injector
// at construction keep working — this is what lets a cluster hand out
// one stable injector at New time and arm the real fault plan later
// (e.g. after a prefill phase fixes the serving-start epoch).
func (in *Injector) Reconfigure(plan Plan) {
	plan.Retry = plan.Retry.withDefaults()
	if len(plan.Jitters) > 0 {
		plan.Jitters = append([]Jitter(nil), plan.Jitters...)
		for i := range plan.Jitters {
			if !(plan.Jitters[i].Prob > 0) {
				plan.Jitters[i].Prob = 1
			}
		}
	}
	in.plan = plan
	in.rng = NewRand(plan.Seed)
}

// Plan returns the plan the injector executes.
func (in *Injector) Plan() Plan { return in.plan }

// count bumps a named fault/retry counter, mirroring it into the
// attached telemetry registry when one is installed.
func (in *Injector) count(name string) {
	in.counters[name]++
	if in.reg != nil {
		c, ok := in.regCtrs[name]
		if !ok {
			c = in.reg.Counter(telemetry.Key{Name: name, Node: -1, Subsystem: "faults"})
			in.regCtrs[name] = c
		}
		c.Add(1)
	}
}

// SetRegistry mirrors every fault/retry counter into reg under
// Subsystem "faults" (so retry.* backoff counts appear in the metrics
// export). No-op on a nil injector or registry.
func (in *Injector) SetRegistry(reg *telemetry.Registry) {
	if in == nil || reg == nil || in.reg == reg {
		return
	}
	in.reg = reg
	in.regCtrs = make(map[string]telemetry.Counter)
	// Catch up counts accumulated before the registry was attached, so
	// install order (faults vs telemetry) doesn't change the export.
	for name, v := range in.counters {
		c, ok := in.regCtrs[name]
		if !ok {
			c = reg.Counter(telemetry.Key{Name: name, Node: -1, Subsystem: "faults"})
			in.regCtrs[name] = c
		}
		if v > 0 {
			c.Add(v)
		}
	}
}

// Note bumps a named counter from a fault-aware subsystem (e.g. a
// hermes failover recovery). No-op on a nil injector.
func (in *Injector) Note(name string) {
	if in != nil {
		in.count(name)
	}
}

// Count returns a named counter's value; 0 on a nil injector.
func (in *Injector) Count(name string) int64 {
	if in == nil {
		return 0
	}
	return in.counters[name]
}

// CountPrefix sums every counter whose name starts with prefix (e.g.
// "retry." for all retry events); 0 on a nil injector.
func (in *Injector) CountPrefix(prefix string) int64 {
	if in == nil {
		return 0
	}
	var sum int64
	for name, v := range in.counters {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// SetTelemetry attaches a span tracer: each Backoff sleep records an
// OpRetry span under the caller's current span. No-op on a nil injector.
func (in *Injector) SetTelemetry(trc *telemetry.Tracer) {
	if in != nil {
		in.trc = trc
	}
}

// Crashed reports whether node's storage has been taken offline.
func (in *Injector) Crashed(node int) bool {
	return in != nil && in.crashed[node]
}

// Allow reports whether a retry is permitted after `attempt` failed
// tries. With a nil injector the default policy applies.
func (in *Injector) Allow(attempt int) bool {
	if in == nil {
		return attempt < DefaultPolicy().Attempts
	}
	return attempt < in.plan.Retry.Attempts
}

// OnCrash registers a callback fired when a node crashes (hermes uses
// this to mark the node down and reroute to replicas).
func (in *Injector) OnCrash(fn func(node int)) {
	in.onCrash = append(in.onCrash, fn)
}

// CrashNode takes node's storage offline immediately and fires the
// crash callbacks. Idempotent.
func (in *Injector) CrashNode(node int) {
	if in.crashed[node] {
		return
	}
	in.crashed[node] = true
	in.count("crash")
	for _, fn := range in.onCrash {
		fn(node)
	}
}

// OnRevive registers a callback fired when a crashed node restarts
// (hermes uses this to bump the node's incarnation and rejoin it to the
// placement ring; cluster wipes the node's devices first so the rejoin
// is cold).
func (in *Injector) OnRevive(fn func(node int)) {
	in.onRevive = append(in.onRevive, fn)
}

// ReviveNode brings a crashed node's storage back online immediately and
// fires the revive callbacks. Reviving a node that is not down is a
// no-op, so a plan's stray revive entries are harmless.
func (in *Injector) ReviveNode(node int) {
	if !in.crashed[node] {
		return
	}
	delete(in.crashed, node)
	// A revived node comes back cold on fresh hardware: sticky device
	// slowdowns that began before this instant no longer apply to it.
	in.slowClearedAt[node] = in.now()
	in.count("revive")
	for _, fn := range in.onRevive {
		fn(node)
	}
}

// NetMessage rolls link faults for one message from src to dst. The
// zero NetEffect means the message passes clean.
func (in *Injector) NetMessage(src, dst int) NetEffect {
	if in == nil {
		return NetEffect{}
	}
	var eff NetEffect
	now := in.now()
	for i := range in.plan.Partitions {
		pt := &in.plan.Partitions[i]
		if pt.matches(src, dst) && now >= pt.From && now < pt.To {
			if pt.To > eff.HoldUntil {
				eff.HoldUntil = pt.To
			}
			in.count("net.partition")
		}
	}
	// Flapping links hold down-phase messages until the next up-phase.
	// Pure vtime arithmetic (no PRNG draw), so adding flap rules never
	// perturbs the draw order of the randomized faults below.
	for i := range in.plan.Flaps {
		fl := &in.plan.Flaps[i]
		if !fl.matches(src, dst) || now < fl.From || now >= fl.To || fl.Period <= 0 {
			continue
		}
		phase := (now - fl.From) % fl.Period
		if phase < fl.Up {
			continue
		}
		release := now - phase + fl.Period // start of the next up-phase
		if release > fl.To {
			release = fl.To
		}
		if release > eff.HoldUntil {
			eff.HoldUntil = release
		}
		in.count("net.flap")
	}
	for i := range in.plan.Links {
		lf := &in.plan.Links[i]
		if !lf.matches(src, dst) {
			continue
		}
		if lf.Drop > 0 {
			for eff.Resend < maxResends && in.rng.Float64() < lf.Drop {
				eff.Resend++
				in.count("net.drop")
			}
		}
		if lf.Dup > 0 && in.rng.Float64() < lf.Dup {
			eff.Resend++
			in.count("net.dup")
		}
		if lf.DelayProb > 0 && in.rng.Float64() < lf.DelayProb {
			eff.Delay += lf.DelaySpike
			in.count("net.delay")
		}
	}
	// Sticky endpoint jitter draws come last so plans without jitter
	// rules consume exactly the draw sequence they did before gray
	// faults existed — byte-identical replay of old plans is preserved.
	for i := range in.plan.Jitters {
		j := &in.plan.Jitters[i]
		if !j.matches(src, dst) || now < j.From || j.Amp <= 0 {
			continue
		}
		if in.rng.Float64() < j.Prob {
			eff.Delay += vtime.Duration(in.rng.Float64() * float64(j.Amp))
			in.count("net.jitter")
		}
	}
	return eff
}

// DeviceRead rolls an injected transient read error for a device on
// node (PFSNode for the shared filesystem) in the given tier.
func (in *Injector) DeviceRead(node int, tier string) error {
	if in == nil {
		return nil
	}
	return in.deviceErr(node, tier, "read")
}

// DeviceWrite rolls an injected transient write error.
func (in *Injector) DeviceWrite(node int, tier string) error {
	if in == nil {
		return nil
	}
	return in.deviceErr(node, tier, "write")
}

func (in *Injector) deviceErr(node int, tier, op string) error {
	for i := range in.plan.Devices {
		df := &in.plan.Devices[i]
		if !df.matches(node, tier) {
			continue
		}
		p := df.ReadErr
		if op == "write" {
			p = df.WriteErr
		}
		if p > 0 && in.rng.Float64() < p {
			if op == "write" {
				in.count("dev.write_err")
			} else {
				in.count("dev.read_err")
			}
			return &DeviceError{Device: tier, Op: op}
		}
	}
	return nil
}

// DeviceSlowdown returns the sticky latency multiplier currently in
// effect for a device (1 when healthy). Deterministic — no PRNG draw.
// A rule with RampFor > 0 interpolates linearly from 1 at SlowFrom to
// SlowFactor at SlowFrom+RampFor (the gray-failure wear curve). Rules
// that began before the node's last revive are skipped: a cold restart
// replaces the degraded hardware.
func (in *Injector) DeviceSlowdown(node int, tier string) float64 {
	if in == nil {
		return 1
	}
	s := 1.0
	now := in.now()
	cleared, hasCleared := in.slowClearedAt[node]
	for i := range in.plan.Devices {
		df := &in.plan.Devices[i]
		if df.SlowFactor <= 1 || !df.matches(node, tier) || now < df.SlowFrom {
			continue
		}
		if hasCleared && df.SlowFrom <= cleared {
			continue
		}
		f := df.SlowFactor
		if df.RampFor > 0 && now < df.SlowFrom+df.RampFor {
			frac := float64(now-df.SlowFrom) / float64(df.RampFor)
			f = 1 + (df.SlowFactor-1)*frac
		}
		if f > 1 {
			s *= f
		}
	}
	return s
}

// Backoff sleeps the calling process for the policy's exponential
// backoff after `attempt` failed tries (attempt >= 1) and bumps the
// named retry counter. Pass a compile-time constant name (e.g.
// "retry.scache_read") so the hot path stays allocation-free.
func (in *Injector) Backoff(p *vtime.Proc, name string, attempt int) {
	po := DefaultPolicy()
	if in != nil {
		po = in.plan.Retry
	}
	d := po.Base
	for i := 1; i < attempt && d < po.Cap; i++ {
		d *= 2
	}
	if d > po.Cap {
		d = po.Cap
	}
	var trc *telemetry.Tracer
	if in != nil {
		trc = in.trc
		in.count(name)
		if po.Jitter > 0 {
			// d * (1 - Jitter/2 + Jitter*u): mean-preserving jitter.
			u := in.rng.Float64()
			d = vtime.Duration(float64(d) * (1 - po.Jitter/2 + po.Jitter*u))
		}
	}
	sp := trc.Enter(p, telemetry.OpRetry, -1, 0, int64(attempt))
	p.Sleep(d)
	sp.Exit(p, 0, false)
}

// Do runs op under the retry policy, backing off between attempts while
// the error is transient. op is only called, never kept, so a closure
// passed here stays on the caller's stack.
func (in *Injector) Do(p *vtime.Proc, name string, op func() error) error {
	err := op()
	for attempt := 1; err != nil && Transient(err) && in.Allow(attempt); attempt++ {
		in.Backoff(p, name, attempt)
		err = op()
	}
	return err
}

// Counter is one named fault/retry statistic.
type Counter struct {
	Name  string
	Value int64
}

// Counters returns all non-zero counters sorted by name. Two runs of the
// same plan and seed produce identical slices.
func (in *Injector) Counters() []Counter {
	if in == nil {
		return nil
	}
	out := make([]Counter, 0, len(in.counters))
	for name, v := range in.counters {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
