// Package megammap is the public API of the MegaMmap reproduction: a
// tiered, nonvolatile software distributed shared memory (DSM) over a
// simulated HPC testbed, after "MegaMmap: Blurring the Boundary Between
// Memory and Storage for Data-Intensive Workloads" (SC 2024).
//
// A program builds a simulated cluster, deploys the DSM on it, spawns
// ranks (vtime processes), and manipulates shared vectors through
// intent-declaring transactions:
//
//	c := megammap.NewCluster(megammap.DefaultTestbed(4))
//	defer c.Close() // ends whatever is still running on the cluster
//	d := megammap.NewDSM(c, megammap.DefaultConfig())
//	w := megammap.NewWorld(c, 16)
//	err := w.Run(func(r *megammap.Rank) {
//	    cl := d.NewClient(r.Proc(), r.Node().ID)
//	    pts, _ := megammap.Open[float64](cl, "pq:///points.parquet:x", megammap.Float64Codec{})
//	    pts.BoundMemory(1 << 20)
//	    pts.Pgas(r.Rank(), r.Size())
//	    pts.SeqTxBegin(pts.LocalOff(), pts.LocalLen(), megammap.ReadOnly)
//	    // ... iterate ...
//	    pts.TxEnd()
//	    if r.Rank() == 0 {
//	        _ = d.Shutdown(r.Proc()) // persists, then releases the shared cache
//	    }
//	})
//
// Everything — storage devices, network fabric, the runtime's worker
// scheduling, prefetching and tier organization — runs on a deterministic
// discrete-event clock, so runs are reproducible and timing results are
// meaningful performance models rather than host noise.
package megammap

import (
	"megammap/internal/cluster"
	"megammap/internal/config"
	"megammap/internal/control"
	"megammap/internal/core"
	"megammap/internal/device"
	"megammap/internal/faults"
	"megammap/internal/mpi"
	"megammap/internal/simnet"
	"megammap/internal/stager"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// Simulation substrate.
type (
	// Duration is virtual time in nanoseconds.
	Duration = vtime.Duration
	// Proc is a simulation process; every rank body receives one.
	Proc = vtime.Proc
	// Engine is the discrete-event engine driving a cluster.
	Engine = vtime.Engine
	// Cluster is the simulated testbed (nodes, devices, fabric, PFS).
	Cluster = cluster.Cluster
	// ClusterSpec configures a testbed.
	ClusterSpec = cluster.Spec
	// TierSpec names one storage tier present on every node.
	TierSpec = cluster.TierSpec
	// Node is one machine of the testbed.
	Node = cluster.Node
	// DeviceProfile describes a storage device class.
	DeviceProfile = device.Profile
	// LinkProfile describes a network fabric class.
	LinkProfile = simnet.LinkProfile
)

// Virtual time units.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// Capacity units in bytes.
const (
	KB = device.KB
	MB = device.MB
	GB = device.GB
)

// The DSM.
type (
	// DSM is a MegaMmap deployment.
	DSM = core.DSM
	// Config tunes the MegaMmap runtime.
	Config = core.Config
	// Client is the per-rank library handle.
	Client = core.Client
	// AccessFlags declare transaction intent.
	AccessFlags = core.AccessFlags
	// Tx is the transaction interface (custom access patterns).
	Tx = core.Tx
	// SeqTx is a sequential transaction.
	SeqTx = core.SeqTx
	// RandTx is a seeded pseudo-random transaction.
	RandTx = core.RandTx
	// StrideTx is a strided transaction.
	StrideTx = core.StrideTx
	// Vector is the shared memory abstraction.
	Vector[T any] = core.Vector[T]
	// Codec serializes fixed-size vector elements.
	Codec[T any] = core.Codec[T]
	// VectorOpt configures Open.
	VectorOpt = core.VectorOpt
	// MemoryTask is the runtime's unit of work (diagnostics).
	MemoryTask = core.MemoryTask
)

// UMap-style per-vector paging hints (Config.Hints): declare that a
// vector is accessed in an order its transactions cannot predict (a graph
// traversal) and the runtime runs no prefetcher for it, without touching
// the application. Hints change scheduling only; results stay
// byte-identical with hints on or off.
type (
	// VectorHint declares one vector's access pattern (matched by name,
	// or by prefix with a trailing '*').
	VectorHint = core.VectorHint
	// PatternClass declares a vector's access pattern.
	PatternClass = core.PatternClass
)

// Access-pattern classes.
const (
	PatternDefault   = core.PatternDefault
	PatternIrregular = core.PatternIrregular
)

// ParsePatternClass parses the config spelling of an access-pattern
// class (default|irregular).
func ParsePatternClass(s string) (PatternClass, error) { return core.ParsePatternClass(s) }

// ControlConfig tunes the adaptive control plane (Config.Control): the
// closed-loop governors that pace anti-entropy repair, incremental
// scrubbing, and eviction/write-back from utilization signals sampled
// each control tick.
type ControlConfig = control.Config

// DefaultControlConfig returns the control plane enabled with every
// governor on.
func DefaultControlConfig() ControlConfig { return control.Default() }

// ControlRepairMin and ControlRepairMax bound the repair governor's
// wake-up interval.
const (
	ControlRepairMin = control.RepairMin
	ControlRepairMax = control.RepairMax
)

// Built-in codecs.
type (
	Float64Codec = core.Float64Codec
	Float32Codec = core.Float32Codec
	Int64Codec   = core.Int64Codec
	Int32Codec   = core.Int32Codec
	ByteCodec    = core.ByteCodec
)

// Transaction intent bits (paper Fig. 3 coherence hints).
const (
	Read       = core.Read
	Write      = core.Write
	Append     = core.Append
	Global     = core.Global
	Collective = core.Collective
	ReadOnly   = core.ReadOnly
	WriteOnly  = core.WriteOnly
	ReadWrite  = core.ReadWrite
)

// Message passing (application structure; paper §III-A allows MPI-style
// coordination next to the DSM).
type (
	// World is a set of ranks.
	World = mpi.World
	// Rank is one process of a world.
	Rank = mpi.Rank
)

// Observability: the vtime-native telemetry plane. Install it on a
// cluster before constructing the DSM (cluster.InstallTelemetry), then
// read metrics tables, the span arena, or a Chrome trace after the run.
type (
	// Telemetry bundles the metrics registry, span tracer, and resource
	// sampler of one cluster.
	Telemetry = telemetry.Telemetry
	// TelemetryOptions selects which telemetry sub-planes to enable.
	TelemetryOptions = telemetry.Options
	// MetricKey addresses one series in the metrics registry
	// (Telemetry.Registry().Value).
	MetricKey = telemetry.Key
	// Span is one traced operation of the fault path.
	Span = telemetry.Span
)

// The fault plane: deterministic scripted failures (message loss, device
// errors, node crashes and cold revivals) plus the self-healing layer's
// typed errors. Install a plan with Cluster.InstallFaults before
// constructing the DSM.
type (
	// FaultPlan scripts one deterministic fault schedule; a deployment
	// file's faults section is its text form (LoadDeployment).
	FaultPlan = faults.Plan
	// Crash takes a node's stored data offline at a virtual time.
	Crash = faults.Crash
	// Revive restarts a crashed node's storage, cold, at a virtual time.
	Revive = faults.Revive
	// Injector applies a FaultPlan (returned by Cluster.InstallFaults).
	Injector = faults.Injector
)

// Typed fault errors (match with errors.Is).
var (
	// ErrNodeDown marks reads that lost their only copy to a node crash.
	ErrNodeDown = faults.ErrNodeDown
	// ErrCorrupt marks checksum mismatches no replica or backend copy
	// could repair.
	ErrCorrupt = faults.ErrCorrupt
)

// URL is a parsed dataset locator ("proto://path:param").
type URL = stager.URL

// NewCluster builds a simulated testbed on a fresh engine.
func NewCluster(spec ClusterSpec) *Cluster { return cluster.New(spec) }

// DefaultTestbed mirrors the paper's per-node hardware at 1/1024 scale.
func DefaultTestbed(nodes int) ClusterSpec { return cluster.DefaultTestbed(nodes) }

// NewDSM deploys MegaMmap on a cluster.
func NewDSM(c *Cluster, cfg Config) *DSM { return core.New(c, cfg) }

// DefaultConfig returns the evaluation's standard DSM configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewWorld creates nprocs ranks distributed block-wise over the nodes.
func NewWorld(c *Cluster, nprocs int) *World { return mpi.NewWorld(c, nprocs) }

// Open connects to (or creates) the shared vector identified by name; a
// name containing "://" designates a nonvolatile vector staged to that
// URL. See core.Open.
func Open[T any](c *Client, name string, codec Codec[T], opts ...VectorOpt) (*Vector[T], error) {
	return core.Open[T](c, name, codec, opts...)
}

// WithPageSize selects a vector's page size at creation.
func WithPageSize(n int64) VectorOpt { return core.WithPageSize(n) }

// WithAccessKey protects a vector: subsequent opens must present the same
// key (the paper's §V security extension).
func WithAccessKey(key string) VectorOpt { return core.WithAccessKey(key) }

// ParseURL parses a dataset locator.
func ParseURL(s string) (URL, error) { return stager.ParseURL(s) }

// Deployment is a cluster + runtime configuration parsed from YAML (the
// paper's configuration-file interface).
type Deployment = config.Deployment

// LoadDeployment parses a YAML deployment document; Build() on the
// result constructs the cluster and DSM.
func LoadDeployment(doc string) (*Deployment, error) { return config.Load(doc) }

// Device profiles for custom testbeds.
var (
	DRAMProfile = device.DRAMProfile
	NVMeProfile = device.NVMeProfile
	SSDProfile  = device.SSDProfile
	HDDProfile  = device.HDDProfile
	PFSProfile  = device.PFSProfile
)

// Network profiles for custom testbeds.
var (
	RoCE40 = simnet.RoCE40
	TCP10  = simnet.TCP10
)
