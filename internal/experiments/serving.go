package experiments

import (
	"fmt"
	"math/rand"

	"megammap/internal/apps/kvstore"
	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/tenant"
	"megammap/internal/vtime"
)

// stream is one open-loop request stream of a serving cell: an arrival
// process replays the seeded schedule into a bounded queue, and worker
// processes drain it against the stream's kvstore table.
type stream struct {
	// spec is the traffic: arrival rate and law, key popularity and
	// keyspace, write fraction; MaxInFlight workers behind a queue of
	// QueueDepth+1 requests.
	spec tenant.Spec
	seed int64
	open func(cl *core.Client) (*kvstore.Store, error)
	// nodes host the stream's clients: prefill runs one client on each,
	// keys striped across them, and worker w runs on nodes[w%len(nodes)].
	nodes        []int
	prefillBound int64        // per-client residency bound while prefilling
	bound        func() int64 // per-worker residency bound, read before every request
	// adm, when non-nil, sheds arrivals that find the queue full and holds
	// workers to its in-flight cap. Without it a full queue blocks the
	// arrival process and a request is served as soon as a worker is free.
	adm *tenant.Admission

	hist      telemetry.Histogram // request latency, arrival to completion
	ops, errs int64               // served requests; failed ones (table-full puts, lost-key gets)
}

// request is one admitted request waiting in a stream's queue.
type request struct {
	at    vtime.Duration // arrival time (latency measures from here)
	key   uint64
	write bool
}

// prefill writes every key of the stream's table so serving reads hit
// real keys.
func (s *stream) prefill(c *cluster.Cluster, d *core.DSM, fail func(error)) {
	c.Engine.Spawn("prefill/"+s.spec.Name, func(p *vtime.Proc) {
		cls := make([]*core.Client, len(s.nodes))
		sts := make([]*kvstore.Store, len(s.nodes))
		for i, n := range s.nodes {
			cls[i] = d.NewClient(p, n)
			st, err := s.open(cls[i])
			if err != nil {
				fail(err)
				return
			}
			st.BoundMemory(s.prefillBound)
			sts[i] = st
		}
		for k := int64(0); k < s.spec.Keys; k++ {
			if err := sts[int(k)%len(sts)].Put(uint64(k), k); err != nil {
				fail(fmt.Errorf("prefill %s key %d: %w", s.spec.Name, k, err))
				return
			}
		}
		for _, cl := range cls {
			cl.Drain()
		}
	})
}

// serve spawns the stream's arrival process and workers. Arrivals stop
// at the horizon; the workers finish once the queue has drained.
func (s *stream) serve(c *cluster.Cluster, d *core.DSM, start, horizon vtime.Duration, fail func(error)) {
	ts := s.spec
	q := vtime.NewChan[request](ts.QueueDepth + 1)
	c.Engine.Spawn("arrivals/"+ts.Name, func(p *vtime.Proc) {
		arr := datagen.NewArrivals(datagen.ArrivalSpec{Rate: ts.Rate, Poisson: ts.Poisson, Seed: s.seed})
		zipf := datagen.NewZipf(datagen.ZipfSpec{Keys: ts.Keys, S: ts.ZipfS, Seed: s.seed + 1})
		// The write coin flips at arrival time so the request mix is
		// independent of service order.
		coin := rand.New(rand.NewSource(s.seed + 2))
		for {
			at := arr.Next()
			if at > horizon {
				break
			}
			p.Sleep(start + at - p.Now())
			if s.adm != nil && s.adm.Arrive() != nil {
				continue // shed: counted by the admission controller
			}
			write := coin.Float64() < ts.WriteFrac
			q.Send(p, request{at: start + at, key: uint64(zipf.Next()), write: write})
		}
		q.Close()
	})
	for w := 0; w < ts.MaxInFlight; w++ {
		c.Engine.Spawn(fmt.Sprintf("worker/%s/%d", ts.Name, w), func(p *vtime.Proc) {
			cl := d.NewClient(p, s.nodes[w%len(s.nodes)])
			st, err := s.open(cl)
			if err != nil {
				fail(err)
				return
			}
			for {
				req, ok := q.Recv(p)
				if !ok {
					break
				}
				// Honor the (possibly squeezed) in-flight cap and the
				// current bound before serving.
				for s.adm != nil && !s.adm.Dispatch() {
					p.Sleep(20 * vtime.Microsecond)
				}
				st.BoundMemory(s.bound())
				if req.write {
					if st.Put(req.key, int64(req.key)+1) != nil {
						s.errs++
					}
				} else if _, ok := st.Get(req.key); !ok {
					s.errs++
				}
				s.hist.Observe(int64(p.Now() - req.at))
				s.ops++
				if s.adm != nil {
					s.adm.Complete()
				}
			}
			cl.Drain()
		})
	}
}

// report writes the stream's exact latency percentiles and request
// counts into out, each name behind prefix.
func (s *stream) report(out Report, prefix string) {
	out.Digests[prefix+"p50_ns"] = s.hist.Quantile(0.50)
	out.Digests[prefix+"p99_ns"] = s.hist.Quantile(0.99)
	out.Digests[prefix+"p999_ns"] = s.hist.Quantile(0.999)
	out.Digests[prefix+"ops"] = s.ops
	out.Digests[prefix+"errs"] = s.errs
}

// serve is the skeleton of a serving cell on a built cluster and DSM:
// every stream's prefill; then, from serving start, the fault plan
// (authored relative to that instant), every stream's arrivals and
// workers, and the governor the caller spawns, until the horizon has
// passed and the queues have drained; then shutdown (stages dirty pages,
// audits invariants) outside the measured window. A phase that fails
// ends the cell with its error. The report's Runtime is the serving
// phase.
func serve(c *cluster.Cluster, d *core.DSM, horizon vtime.Duration, fp *faults.Plan, streams []*stream, governor func(start vtime.Duration)) (Report, error) {
	reg := telemetry.NewRegistry()
	for _, s := range streams {
		s.hist = reg.Histogram(telemetry.Key{Name: "serve.latency_ns", Node: -1, Subsystem: "serve", Tier: s.spec.Name})
	}
	err := phase(c, func(fail func(error)) {
		for _, s := range streams {
			s.prefill(c, d, fail)
		}
	})
	if err != nil {
		return Report{}, err
	}
	start := c.Engine.Now()
	installFaults(c, fp, start)
	err = phase(c, func(fail func(error)) {
		for _, s := range streams {
			s.serve(c, d, start, horizon, fail)
		}
		if governor != nil {
			governor(start)
		}
	})
	if err != nil {
		return Report{}, err
	}
	end := c.Engine.Now()
	err = phase(c, func(fail func(error)) {
		c.Engine.Spawn("shutdown", func(p *vtime.Proc) {
			if err := d.Shutdown(p); err != nil {
				fail(err)
			}
		})
	})
	if err != nil {
		return Report{}, err
	}
	return newReport(start, end-start), nil
}
