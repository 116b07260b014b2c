package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"megammap/internal/vtime"
)

// AnyNode matches every node in a fault rule.
const AnyNode = -1

// PFSNode is the pseudo-node identifying the shared parallel filesystem
// device in device fault rules.
const PFSNode = -2

// LinkFault injects per-message misbehaviour on matching links. Src/Dst
// of AnyNode match every endpoint; a rule matches a message in either
// direction.
type LinkFault struct {
	Src, Dst   int
	Drop       float64        // P(message dropped; the reliable transport retransmits)
	Dup        float64        // P(message duplicated on the wire)
	DelayProb  float64        // P(delay spike added)
	DelaySpike vtime.Duration // size of one delay spike
}

func (lf *LinkFault) matches(src, dst int) bool {
	fwd := (lf.Src == AnyNode || lf.Src == src) && (lf.Dst == AnyNode || lf.Dst == dst)
	rev := (lf.Src == AnyNode || lf.Src == dst) && (lf.Dst == AnyNode || lf.Dst == src)
	return fwd || rev
}

// Partition blocks all traffic between the matching endpoints during
// [From, To); a reliable transport holds messages until the partition
// heals.
type Partition struct {
	Src, Dst int // AnyNode matches every endpoint
	From, To vtime.Duration
}

func (pt *Partition) matches(src, dst int) bool {
	lf := LinkFault{Src: pt.Src, Dst: pt.Dst}
	return lf.matches(src, dst)
}

// Jitter is a sticky gray-failure primitive: from From onward, every
// message touching Node (AnyNode = all traffic) picks up an extra delay
// uniform in [0, Amp) with probability Prob. Unlike a LinkFault delay
// spike it models a persistently noisy endpoint — the NIC with a flaky
// SerDes lane — rather than a lossy link.
type Jitter struct {
	Node int            // AnyNode matches every endpoint
	Amp  vtime.Duration // maximum extra per-message delay
	Prob float64        // P(jitter applied); 0 is normalized to 1
	From vtime.Duration // when the jitter becomes sticky (0 = from start)
}

func (j *Jitter) matches(src, dst int) bool {
	return j.Node == AnyNode || j.Node == src || j.Node == dst
}

// Flap is a deterministically flapping link: during [From, To) the
// node's links cycle with period Period, up for the first Up of each
// period and down for the rest. Down-phase messages are held until the
// next up-phase (the reliable transport's view of a bouncing port).
// Pure vtime arithmetic — no PRNG draw — so it replays byte-identically
// regardless of surrounding randomized faults.
type Flap struct {
	Node     int // AnyNode matches every endpoint
	Up       vtime.Duration
	Period   vtime.Duration
	From, To vtime.Duration
}

func (fl *Flap) matches(src, dst int) bool {
	return fl.Node == AnyNode || fl.Node == src || fl.Node == dst
}

// DeviceFault injects transient I/O errors and sticky latency
// degradation on matching devices. Node AnyNode matches all nodes,
// PFSNode matches the shared filesystem; an empty Tier matches every
// tier.
//
// A non-zero RampFor turns the sticky slowdown into a gray-failure
// ramp: the factor interpolates linearly from 1 at SlowFrom up to
// SlowFactor at SlowFrom+RampFor and stays there — the wearing-out
// device the health scorer must catch before it reaches full severity.
type DeviceFault struct {
	Node       int
	Tier       string
	ReadErr    float64        // P(transient read error per access)
	WriteErr   float64        // P(transient write error per access)
	SlowFactor float64        // latency multiplier / bandwidth divisor (>1 = degraded)
	SlowFrom   vtime.Duration // when the degradation becomes sticky (0 = from start)
	RampFor    vtime.Duration // linear ramp-up window after SlowFrom (0 = step)
}

func (df *DeviceFault) matches(node int, tier string) bool {
	return (df.Node == AnyNode || df.Node == node) && (df.Tier == "" || df.Tier == tier)
}

// Crash takes a node's stored data offline at a virtual time. The
// compute plane keeps running (the paper's storage-failure model);
// hermes marks the node down and fails reads over to backup replicas.
type Crash struct {
	Node int
	At   vtime.Duration
}

// Revive restarts a crashed node's storage at a virtual time. The node
// comes back cold — its devices are wiped before it rejoins — so every
// blob it held before the crash must be re-replicated onto it by the
// anti-entropy repair plane before it carries data again.
type Revive struct {
	Node int
	At   vtime.Duration
}

// Policy is the retry/backoff policy wrapped around fault-exposed
// operations: up to Attempts tries, exponential backoff from Base capped
// at Cap, with a Jitter fraction drawn from the plan's seeded PRNG.
type Policy struct {
	Attempts int
	Base     vtime.Duration
	Cap      vtime.Duration
	Jitter   float64 // fraction of each backoff randomized, in [0, 1]
}

// DefaultPolicy absorbs short transient bursts without masking real
// outages: 4 attempts, 50us base doubling up to a 2ms cap, 20% jitter.
func DefaultPolicy() Policy {
	return Policy{Attempts: 4, Base: 50 * vtime.Microsecond, Cap: 2 * vtime.Millisecond, Jitter: 0.2}
}

// withDefaults fills unset policy fields.
func (po Policy) withDefaults() Policy {
	def := DefaultPolicy()
	if po.Attempts <= 0 {
		po.Attempts = def.Attempts
	}
	if po.Base <= 0 {
		po.Base = def.Base
	}
	if po.Cap <= 0 {
		po.Cap = def.Cap
	}
	if po.Jitter < 0 || po.Jitter > 1 {
		po.Jitter = def.Jitter
	}
	return po
}

// Plan scripts one deterministic fault schedule.
type Plan struct {
	Seed       uint64
	Links      []LinkFault
	Partitions []Partition
	Jitters    []Jitter
	Flaps      []Flap
	Devices    []DeviceFault
	Crashes    []Crash
	Revives    []Revive
	Retry      Policy
}

// Shift returns a copy of the plan with every absolute time moved
// forward by d. Plans are authored relative to the start of the phase
// they disturb (serving, the measured run), but the injector's clock
// starts at cluster construction.
func (pl Plan) Shift(d vtime.Duration) Plan {
	pl.Crashes = slices.Clone(pl.Crashes)
	for i := range pl.Crashes {
		pl.Crashes[i].At += d
	}
	pl.Revives = slices.Clone(pl.Revives)
	for i := range pl.Revives {
		pl.Revives[i].At += d
	}
	pl.Partitions = slices.Clone(pl.Partitions)
	for i := range pl.Partitions {
		pl.Partitions[i].From += d
		pl.Partitions[i].To += d
	}
	pl.Devices = slices.Clone(pl.Devices)
	for i := range pl.Devices {
		pl.Devices[i].SlowFrom += d
	}
	pl.Jitters = slices.Clone(pl.Jitters)
	for i := range pl.Jitters {
		pl.Jitters[i].From += d
	}
	pl.Flaps = slices.Clone(pl.Flaps)
	for i := range pl.Flaps {
		pl.Flaps[i].From += d
		pl.Flaps[i].To += d
	}
	return pl
}

// ParseSpec parses the compact fault-plan DSL of a scenario plan's
// `faults: spec:` line: semicolon-separated key=value clauses.
//
//	seed=42              PRNG seed
//	drop=0.02            message drop probability (all links)
//	dup=0.01             message duplication probability
//	delay=200us@0.01     delay spike of 200us with probability 0.01
//	readerr=0.01         transient device read-error probability
//	writeerr=0.005       transient device write-error probability
//	slow=nvme:4@30ms     nvme tier 4x slower from t=30ms ("@..." optional)
//	jitter=1:300us@20ms  node 1 adds uniform [0,300us) delay per message from t=20ms
//	jitter=*:100us       all traffic jitters up to 100us from the start
//	flap=2:1ms/4ms@10ms-50ms  node 2's links up 1ms of every 4ms during [10ms,50ms)
//	ramp=1/nvme:6@30ms+20ms   node 1 nvme ramps 1x->6x over [30ms,50ms), then sticky
//	ramp=ssd:3@10ms+5ms       tier-wide ramp ("node/" optional)
//	crash=1@40ms         node 1's storage goes down at t=40ms
//	revive=1@80ms        node 1 restarts (cold storage) at t=80ms
//	part=0-1@10ms-12ms   partition nodes 0 and 1 during [10ms, 12ms)
//	attempts=5 backoff=50us cap=2ms jitter=0.2   retry policy
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	var all LinkFault // accumulated any-to-any link rule
	all.Src, all.Dst = AnyNode, AnyNode
	var dev DeviceFault // accumulated any-device error rule
	dev.Node = AnyNode
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad clause %q (want key=value)", clause)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "drop":
			all.Drop, err = parseProb(v)
		case "dup":
			all.Dup, err = parseProb(v)
		case "delay":
			spike, prob, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			if all.DelaySpike, err = parseDur(spike); err != nil {
				break
			}
			all.DelayProb = 1
			if prob != "" {
				all.DelayProb, err = parseProb(prob)
			}
		case "readerr":
			dev.ReadErr, err = parseProb(v)
		case "writeerr":
			dev.WriteErr, err = parseProb(v)
		case "slow":
			df := DeviceFault{Node: AnyNode}
			body, from, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			if from != "" {
				if df.SlowFrom, err = parseDur(from); err != nil {
					break
				}
			}
			tier, factor, ok := strings.Cut(body, ":")
			if !ok {
				tier, factor = "", body
			}
			df.Tier = tier
			if df.SlowFactor, err = strconv.ParseFloat(factor, 64); err != nil {
				break
			}
			p.Devices = append(p.Devices, df)
		case "jitter":
			// Two meanings share the key: "jitter=0.2" sets the retry-policy
			// jitter fraction (pre-existing form), while "jitter=<node>:<amp>"
			// declares a sticky link-jitter rule. The colon disambiguates.
			if !strings.Contains(v, ":") {
				p.Retry.Jitter, err = parseProb(v)
				break
			}
			body, from, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			node, amp, _ := strings.Cut(body, ":")
			j := Jitter{Prob: 1}
			if j.Node, err = parseNode(node); err != nil {
				break
			}
			if j.Amp, err = parseDur(amp); err != nil {
				break
			}
			if j.Amp <= 0 {
				err = fmt.Errorf("jitter amplitude must be positive")
				break
			}
			if from != "" {
				if j.From, err = parseDur(from); err != nil {
					break
				}
			}
			p.Jitters = append(p.Jitters, j)
		case "flap":
			body, window, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			node, cyc, ok := strings.Cut(body, ":")
			if !ok {
				err = fmt.Errorf("want node:up/period")
				break
			}
			up, period, ok := strings.Cut(cyc, "/")
			if !ok {
				err = fmt.Errorf("want up/period cycle")
				break
			}
			from, to, ok := strings.Cut(window, "-")
			if !ok {
				err = fmt.Errorf("want from-to window")
				break
			}
			fl := Flap{}
			if fl.Node, err = parseNode(node); err != nil {
				break
			}
			if fl.Up, err = parseDur(up); err != nil {
				break
			}
			if fl.Period, err = parseDur(period); err != nil {
				break
			}
			if fl.Period <= 0 {
				err = fmt.Errorf("flap period must be positive")
				break
			}
			if fl.From, err = parseDur(from); err != nil {
				break
			}
			if fl.To, err = parseDur(to); err != nil {
				break
			}
			p.Flaps = append(p.Flaps, fl)
		case "ramp":
			body, win, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			if win == "" {
				err = fmt.Errorf("want @from+rampdur")
				break
			}
			target, factor, ok := strings.Cut(body, ":")
			if !ok {
				err = fmt.Errorf("want [node/]tier:factor")
				break
			}
			df := DeviceFault{Node: AnyNode}
			if nodeS, tier, cut := strings.Cut(target, "/"); cut {
				if df.Node, err = parseNode(nodeS); err != nil {
					break
				}
				df.Tier = tier
			} else {
				df.Tier = target
			}
			if df.SlowFactor, err = strconv.ParseFloat(factor, 64); err != nil {
				break
			}
			from, rampdur, ok := strings.Cut(win, "+")
			if !ok {
				err = fmt.Errorf("want from+rampdur")
				break
			}
			if df.SlowFrom, err = parseDur(from); err != nil {
				break
			}
			if df.RampFor, err = parseDur(rampdur); err != nil {
				break
			}
			p.Devices = append(p.Devices, df)
		case "crash":
			node, at, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			cr := Crash{}
			if cr.Node, err = strconv.Atoi(node); err != nil {
				break
			}
			if cr.At, err = parseDur(at); err != nil {
				break
			}
			p.Crashes = append(p.Crashes, cr)
		case "revive":
			node, at, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			rv := Revive{}
			if rv.Node, err = strconv.Atoi(node); err != nil {
				break
			}
			if rv.At, err = parseDur(at); err != nil {
				break
			}
			p.Revives = append(p.Revives, rv)
		case "part":
			pair, window, e := cutAt(v)
			if e != nil {
				err = e
				break
			}
			a, b, ok := strings.Cut(pair, "-")
			if !ok {
				err = fmt.Errorf("want src-dst")
				break
			}
			from, to, ok := strings.Cut(window, "-")
			if !ok {
				err = fmt.Errorf("want from-to window")
				break
			}
			pt := Partition{}
			if pt.Src, err = strconv.Atoi(a); err != nil {
				break
			}
			if pt.Dst, err = strconv.Atoi(b); err != nil {
				break
			}
			if pt.From, err = parseDur(from); err != nil {
				break
			}
			if pt.To, err = parseDur(to); err != nil {
				break
			}
			p.Partitions = append(p.Partitions, pt)
		case "attempts":
			p.Retry.Attempts, err = strconv.Atoi(v)
		case "backoff":
			p.Retry.Base, err = parseDur(v)
		case "cap":
			p.Retry.Cap, err = parseDur(v)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return nil, fmt.Errorf("faults: clause %q: %v", clause, err)
		}
	}
	if all.Drop > 0 || all.Dup > 0 || all.DelayProb > 0 {
		p.Links = append(p.Links, all)
	}
	if dev.ReadErr > 0 || dev.WriteErr > 0 {
		p.Devices = append(p.Devices, dev)
	}
	return p, nil
}

// parseNode parses a node reference: "*" or "any" matches every node,
// "pfs" the shared filesystem pseudo-node, else a literal node index.
func parseNode(s string) (int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "*", "any":
		return AnyNode, nil
	case "pfs":
		return PFSNode, nil
	}
	return strconv.Atoi(s)
}

// cutAt splits "body@suffix"; the suffix is optional.
func cutAt(v string) (body, suffix string, err error) {
	body, suffix, _ = strings.Cut(v, "@")
	if body == "" {
		return "", "", fmt.Errorf("empty value")
	}
	return body, suffix, nil
}

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	// The negated comparison also rejects NaN, which would sail through
	// `f < 0 || f > 1` and poison every seeded coin flip downstream.
	if !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("probability %v outside [0,1]", f)
	}
	return f, nil
}

// parseDur parses "500ns", "50us", "2ms", "1.5s" (bare numbers are
// nanoseconds).
func parseDur(v string) (vtime.Duration, error) {
	s := strings.TrimSpace(strings.ToLower(v))
	mult := vtime.Nanosecond
	for _, u := range []struct {
		suffix string
		mult   vtime.Duration
	}{{"ns", vtime.Nanosecond}, {"us", vtime.Microsecond}, {"ms", vtime.Millisecond}, {"s", vtime.Second}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			s = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", v)
	}
	if !(f >= 0) { // rejects negatives and NaN
		return 0, fmt.Errorf("negative duration %q", v)
	}
	ns := f * float64(mult)
	// Guard the int64 conversion: 1e300s would wrap negative and schedule
	// the fault before the beginning of time.
	if ns >= float64(1<<63) {
		return 0, fmt.Errorf("duration %q overflows", v)
	}
	return vtime.Duration(ns), nil
}
