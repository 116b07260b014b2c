package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"megammap"
	"megammap/internal/apps/kmeans"
	"megammap/internal/blob"
	"megammap/internal/datagen"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// trace runs a small KMeans workload on the deployment with the full
// telemetry plane enabled and writes the run as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing). The pcache is bounded below
// the per-rank partition so the run exercises the whole fault path:
// pcache miss -> scache lookup -> device I/O -> stage-in -> PFS read.
func trace(dep *megammap.Deployment, out string) error {
	if dep.Telemetry == nil {
		dep.Telemetry = &telemetry.Options{
			Metrics:      true,
			Spans:        true,
			SamplePeriod: 200 * vtime.Microsecond,
		}
	}
	dep.Telemetry.Spans = true // the subcommand is pointless without spans
	c, d := dep.Build()
	defer c.Close()
	tel := c.Telemetry()

	// Generate the particle dataset on the PFS before measurement.
	const n = 1 << 14
	ptsURL := "pq:///data/trace.parquet:pts"
	g := datagen.New(datagen.DefaultSpec(n, 8, 42))
	var genErr error
	c.Engine.Spawn("datagen", func(p *megammap.Proc) {
		b, err := stager.New(c).Open(ptsURL)
		if err != nil {
			genErr = err
			return
		}
		_, genErr = g.WriteTo(p, b, 0)
	})
	if err := c.Engine.Run(); err != nil {
		return err
	}
	if genErr != nil {
		return genErr
	}

	ranks := dep.Cluster.Nodes * 2
	total := int64(n) * datagen.ParticleSize
	cfg := kmeans.Config{
		DatasetURL: ptsURL,
		AssignURL:  "file:///data/trace.assign",
		K:          8,
		MaxIter:    2,
		Seed:       42,
		InitSpan:   int64(n) / int64(ranks),
		BoundBytes: total / int64(ranks) / 2,
	}
	w := megammap.NewWorld(c, ranks)
	err := w.Run(func(r *megammap.Rank) {
		if _, err := kmeans.Mega(r, d, cfg); err != nil {
			r.Fail(err)
			return
		}
		if r.Rank() == 0 {
			if err := d.Shutdown(r.Proc()); err != nil {
				r.Fail(err)
			}
		}
	})
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	vecName := func(vec uint32) string { return d.Hermes().DisplayName(blob.Raw(vec)) }
	if err := tel.WriteChromeTrace(f, vecName); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Self-validate: the file must parse as Chrome trace JSON and the
	// spans must cover the fault path end to end. A span ring that lapped
	// keeps only the run's newest spans, so there the file must hold
	// exactly the ring's capacity instead.
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("emitted trace is not valid Chrome trace JSON: %w", err)
	}
	trc := tel.Tracer()
	if opts := tel.Options(); opts.SpanRing && trc.Len() > opts.MaxSpans {
		spans := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				spans++
			}
		}
		if spans != opts.MaxSpans {
			return fmt.Errorf("span ring holds %d spans, want its capacity %d", spans, opts.MaxSpans)
		}
		fmt.Printf("trace: %d spans, the newest %d kept by the ring, %d events -> %s\n",
			trc.Len(), spans, len(doc.TraceEvents), out)
		return nil
	}
	need := map[string]bool{
		"fault":       false,
		"scache.get":  false,
		"device.read": false,
		"stage.in":    false,
		"pfs.read":    false,
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := need[ev.Name]; ok && ev.Ph == "X" {
			need[ev.Name] = true
		}
	}
	missing := make([]string, 0, len(need))
	for op, seen := range need {
		if !seen {
			missing = append(missing, op)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("trace covers no %v spans; fault path not exercised", missing)
	}
	fmt.Printf("trace: %d spans, %d events (%d dropped) -> %s\n",
		trc.Len(), len(doc.TraceEvents), trc.Dropped(), out)
	return nil
}
