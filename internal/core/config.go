package core

import (
	"megammap/internal/control"
	"megammap/internal/vtime"
)

// Config tunes the MegaMmap runtime. It is the Go analog of the paper's
// YAML configuration file.
type Config struct {
	// Tiers names the scache storage tiers, fastest first. Every named
	// tier must exist on every node of the cluster. Typical: ["dram",
	// "nvme", "ssd", "hdd"], subset per experiment.
	Tiers []string

	// WorkersLowLat and WorkersHighLat size the two worker groups of
	// every node's runtime. MemoryTasks under lowLatThreshold bytes are
	// scheduled on the low-latency group so small requests are not
	// stalled behind bulk transfers (paper §III-B).
	WorkersLowLat  int
	WorkersHighLat int

	// DefaultPageSize is the page size of vectors that do not choose
	// their own (bytes).
	DefaultPageSize int64

	// OrganizePeriod is how often the Data Organizer reinterprets scores
	// and reorganizes the DMSH. Zero disables background organization.
	OrganizePeriod vtime.Duration

	// StagePeriod is how often modified pages of nonvolatile vectors are
	// actively flushed to their backend during computation. Zero disables
	// active flushing (data still persists at Shutdown).
	StagePeriod vtime.Duration

	// DisablePrefetch turns the transaction-informed prefetcher off for
	// every vector (ablation and the paper's "no optimizations" baseline
	// mode).
	DisablePrefetch bool

	// DisableWorkerSplit schedules every task on one merged worker group
	// (ablation of the low/high-latency split).
	DisableWorkerSplit bool

	// DisablePartialPaging flushes whole pages instead of dirty regions
	// (ablation of partial paging): a commit lays its dirty regions over
	// the stored page image and writes that whole, paying the read of the
	// image and the whole-page write.
	DisablePartialPaging bool

	// DisableReplication turns node-local replica creation off for
	// read-only/collective phases (ablation of the Fig. 3 read-only
	// global coherence optimization).
	DisableReplication bool

	// Replicas keeps this many backup copies of every scache page on
	// other nodes, so reads survive a node failure (the paper's §V
	// node-failure extension; off by default, as in the paper).
	Replicas int

	// ChecksumPages verifies a CRC-32 of every page image on each fault,
	// detecting silent corruption (the paper's §V memory-corruption
	// extension). Commits merge their dirty regions onto the page image
	// and write it whole when enabled, with no lookup for a whole page.
	// Detected mismatches repair transparently from a backup replica or
	// the backend when a good copy exists; otherwise the fault surfaces
	// faults.ErrCorrupt.
	ChecksumPages bool

	// ScrubPeriod is how often the background scrubber re-reads every
	// checksummed page resident in the scache, catching corruption at
	// rest instead of waiting for the next fault. Requires ChecksumPages;
	// zero disables scrubbing (pages are still verified on access).
	ScrubPeriod vtime.Duration

	// RepairPeriod is how often the anti-entropy repair daemon runs one
	// re-replication step, restoring the configured Replicas factor after
	// a node crash or a degraded write. Zero disables background repair
	// (the queue still fills; nothing drains it).
	RepairPeriod vtime.Duration

	// Hints declare vectors' access patterns by name (see VectorHint). A
	// vector a hint declares irregular runs no prefetcher, as if
	// DisablePrefetch were set for it alone. Vectors without a matching
	// hint behave exactly as before — an empty list is byte-identical to
	// older runs.
	Hints []VectorHint

	// Control configures the adaptive control plane: closed-loop
	// governors that sample utilization, backlog, and cache signals each
	// tick and adjust repair pacing, scrub budgets, and eviction/write-back
	// watermarks. Disabled by default — the zero
	// value leaves every knob fixed, byte-identical to older runs. With
	// the repair governor active RepairPeriod is ignored, and with the
	// scrub governor active sweeps become incremental under ScrubPeriod.
	Control control.Config

	// Health configures the gray-failure resilience plane: a
	// deterministic accrual health scorer that watches per-node device
	// service-time degradation, hedges reads against suspected-slow
	// primaries, and quarantines degraded nodes out of placement with
	// probe-based reintegration. Disabled by default — the zero value
	// leaves the read and placement paths byte-identical to older runs.
	Health control.HealthConfig
}

// Fixed runtime parameters: every evaluation runs them at these values.
const (
	// lowLatThreshold is the payload size below which a task is
	// latency-sensitive. The paper uses 16 KB.
	lowLatThreshold = 16 << 10

	// minScore is the prefetcher cutoff: future pages score down to this
	// value before scoring stops (paper Algorithm 1).
	minScore = 0.25

	// organizeBudget caps the bytes the organizer moves per pass so
	// reorganization never monopolizes tier bandwidth.
	organizeBudget = 256 << 10

	// scoreDecay multiplies every blob score after each organize pass so
	// stale hints age out.
	scoreDecay = 0.5
)

// DefaultConfig returns the configuration used by the evaluation unless
// an experiment overrides it.
func DefaultConfig() Config {
	return Config{
		Tiers:           []string{"dram", "nvme", "ssd", "hdd"},
		WorkersLowLat:   2,
		WorkersHighLat:  2,
		DefaultPageSize: 64 << 10,
		OrganizePeriod:  20 * vtime.Millisecond,
		StagePeriod:     50 * vtime.Millisecond,
		RepairPeriod:    5 * vtime.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	if c.WorkersLowLat <= 0 {
		c.WorkersLowLat = 2
	}
	if c.WorkersHighLat <= 0 {
		c.WorkersHighLat = 2
	}
	if c.DefaultPageSize <= 0 {
		c.DefaultPageSize = 64 << 10
	}
	if len(c.Tiers) == 0 {
		c.Tiers = []string{"dram", "nvme", "ssd", "hdd"}
	}
	return c
}
