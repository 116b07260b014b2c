// Package device models the storage hardware of the Deep Memory and
// Storage Hierarchy (DMSH): DRAM, NVMe, SATA SSD, HDD, and a parallel
// filesystem. A Device stores real bytes (so data correctness is end to
// end) while charging access costs — latency, bandwidth, and queueing on a
// limited number of hardware channels — to the virtual clock.
//
// Profiles carry the tier score used by the MegaMmap data organizer (a
// number in (0,1], closer to 1 meaning faster) and a $/GB figure used by
// the Fig. 7 tiering-cost study.
package device

import (
	"bytes"
	"fmt"
	"sort"

	"megammap/internal/blob"
	"megammap/internal/faults"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

// Size helpers in bytes.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Class identifies the hardware kind of a device.
type Class int

// Device classes, fastest first. ClassRemotePool sorts after the local
// media: its DRAM arena is fast, but every access also crosses the
// fabric, which is charged by the caller rather than the device.
const (
	ClassDRAM Class = iota
	ClassNVMe
	ClassSSD
	ClassHDD
	ClassPFS
	ClassRemotePool
)

var classNames = [...]string{"dram", "nvme", "ssd", "hdd", "pfs", "remote_pool"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Profile describes the performance, capacity and cost characteristics of
// a device. Bandwidths are bytes per second of virtual time.
type Profile struct {
	Class     Class
	Latency   vtime.Duration // fixed per-access latency
	ReadBW    float64        // bytes/s
	WriteBW   float64        // bytes/s
	Capacity  int64          // bytes
	Channels  int            // concurrent hardware channels
	Score     float64        // tier score in (0,1], 1 = fastest
	CostPerGB float64        // USD per GB (paper Fig. 7 retail estimates)
}

// Standard profiles. Latency/bandwidth values follow the hardware classes
// in the paper's testbed (NVMe within an order of magnitude of DRAM, HDD
// 6-10x slower than SSD/NVMe); $/GB figures are the paper's retail
// estimates (HDD .02, SATA SSD .04, NVMe .08).
var (
	// DRAMProfile returns a DRAM tier of the given capacity.
	DRAMProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassDRAM, Latency: 100 * vtime.Nanosecond,
			ReadBW: 12e9, WriteBW: 12e9, Capacity: capacity,
			Channels: 4, Score: 1.0, CostPerGB: 3.0,
		}
	}
	// NVMeProfile returns an NVMe tier of the given capacity.
	NVMeProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassNVMe, Latency: 20 * vtime.Microsecond,
			ReadBW: 2.0e9, WriteBW: 1.6e9, Capacity: capacity,
			Channels: 4, Score: 0.9, CostPerGB: 0.08,
		}
	}
	// SSDProfile returns a SATA SSD tier of the given capacity.
	SSDProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassSSD, Latency: 80 * vtime.Microsecond,
			ReadBW: 500e6, WriteBW: 450e6, Capacity: capacity,
			Channels: 2, Score: 0.7, CostPerGB: 0.04,
		}
	}
	// HDDProfile returns an HDD tier of the given capacity.
	HDDProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassHDD, Latency: 5 * vtime.Millisecond,
			ReadBW: 150e6, WriteBW: 120e6, Capacity: capacity,
			Channels: 1, Score: 0.3, CostPerGB: 0.02,
		}
	}
	// RemotePoolProfile returns the DRAM arena of a fabric-attached
	// memory-pool node. The profile prices only the media side — DRAM
	// speeds with a little controller overhead and wide channels for an
	// arena shared by many clients; the latency-poor part of pool access
	// is the fabric transfer hermes charges on top of it. The score
	// ranks the tier between local NVMe and the cold media (media is
	// fast, but reaching it is not), and pooled DRAM is priced below
	// locally socketed DRAM.
	RemotePoolProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassRemotePool, Latency: 250 * vtime.Nanosecond,
			ReadBW: 16e9, WriteBW: 16e9, Capacity: capacity,
			Channels: 8, Score: 0.8, CostPerGB: 2.0,
		}
	}
	// PFSProfile returns a parallel-filesystem backend of the given
	// capacity. It models the aggregate bandwidth a striped remote PFS
	// (e.g. OrangeFS across a storage rack) serves to the whole job;
	// per-client throughput is further bounded by each node's NIC.
	PFSProfile = func(capacity int64) Profile {
		return Profile{
			Class: ClassPFS, Latency: 2 * vtime.Millisecond,
			ReadBW: 1.6e9, WriteBW: 1.2e9, Capacity: capacity,
			Channels: 8, Score: 0.1, CostPerGB: 0.02,
		}
	}
)

// Device is a blob store with modeled access costs. All methods must be
// called from a vtime process.
type Device struct {
	prof  Profile
	name  string
	used  int64
	peak  int64
	chans *vtime.Resource // queue depth: latency phases overlap
	bw    *vtime.Resource // media bandwidth: transfers serialize
	blobs map[blob.ID][]byte
	// spare holds the arrays Purge dropped. A new blob of one's exact
	// length takes it (Write), so a node that restarts cold and stores its
	// pages again does not make the host allocate its storage twice. Drop,
	// the shutdown path, releases them.
	spare [][]byte

	// Fault injection (nil when no plan is installed).
	inj   *faults.Injector
	fnode int
	ftier string

	// Span tracing (nil when no telemetry plane is installed).
	trc   *telemetry.Tracer
	tnode int

	// Counters for the resource monitor. nomBusy accumulates what busy
	// would have been without injected slowdowns; busy/nomBusy is the
	// experienced degradation ratio the health scorer feeds on.
	readOps, writeOps     int64
	bytesRead, bytesWrite int64
	busy                  vtime.Duration
	nomBusy               vtime.Duration

	// onUsed observers fire on every change to the stored-byte count;
	// cluster aggregates and the hermes placement index subscribe so
	// capacity queries never walk devices.
	onUsed []func(delta int64)
}

// New returns a device with the given name and profile.
func New(name string, prof Profile) *Device {
	if prof.Channels <= 0 {
		prof.Channels = 1
	}
	return &Device{
		prof:  prof,
		name:  name,
		chans: vtime.NewResource(prof.Channels),
		bw:    vtime.NewResource(1),
		blobs: make(map[blob.ID][]byte),
	}
}

// SetFaults attaches a fault injector. node and tier identify this
// device in the plan's device rules (faults.PFSNode for the shared
// filesystem).
func (d *Device) SetFaults(inj *faults.Injector, node int, tier string) {
	d.inj, d.fnode, d.ftier = inj, node, tier
}

// SetTelemetry attaches a span tracer; node identifies this device's
// host in the trace (-1 for the shared filesystem).
func (d *Device) SetTelemetry(trc *telemetry.Tracer, node int) {
	d.trc, d.tnode = trc, node
}

// enter opens a device I/O span for key under the caller's current span.
func (d *Device) enter(p *vtime.Proc, op telemetry.Op, key blob.ID) telemetry.Bracket {
	var vec uint32
	// The PFS device (node < 0) stores keys from the cluster's own
	// interner; its vec ids mean nothing to the trace resolver.
	if d.tnode >= 0 {
		vec = key.Vec
	}
	return d.trc.Enter(p, op, d.tnode, vec, key.Page)
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.prof }

// Used returns the bytes currently stored.
func (d *Device) Used() int64 { return d.used }

// Free returns the remaining capacity in bytes.
func (d *Device) Free() int64 { return d.prof.Capacity - d.used }

// Peak returns the high-water mark of stored bytes.
func (d *Device) Peak() int64 { return d.peak }

// OnUsedChange registers an observer of the device's stored-byte count:
// fn fires with the signed delta on every write, grow, delete, and purge.
// Observers must not perform device I/O.
func (d *Device) OnUsedChange(fn func(delta int64)) { d.onUsed = append(d.onUsed, fn) }

func (d *Device) note(delta int64) {
	if delta == 0 {
		return
	}
	d.used += delta
	if d.used > d.peak {
		d.peak = d.used
	}
	for _, fn := range d.onUsed {
		fn(delta)
	}
}

// Busy returns the cumulative virtual time spent servicing requests.
func (d *Device) Busy() vtime.Duration { return d.busy }

// NominalBusy returns the service time the same requests would have cost
// on a healthy device (no injected slowdown). Busy()/NominalBusy() over a
// sampling window is the degradation ratio the health scorer watches: 1
// when healthy, approaching the injected slow factor as a device grays.
func (d *Device) NominalBusy() vtime.Duration { return d.nomBusy }

// UtilSince converts a previously sampled Busy() value into average
// utilization over the window since the sample, clamped to [0, 1]. The
// control plane uses this as its foreground-I/O-pressure signal.
func (d *Device) UtilSince(prevBusy, window vtime.Duration) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(d.busy-prevBusy) / float64(window)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Stats returns cumulative operation and byte counters.
func (d *Device) Stats() (readOps, writeOps, bytesRead, bytesWritten int64) {
	return d.readOps, d.writeOps, d.bytesRead, d.bytesWrite
}

// ErrNoSpace reports that a write would exceed device capacity.
type ErrNoSpace struct {
	Device string
	Need   int64
	Free   int64
}

func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("device %s: need %d bytes, %d free", e.Device, e.Need, e.Free)
}

// Has reports whether a blob exists.
func (d *Device) Has(key blob.ID) bool {
	_, ok := d.blobs[key]
	return ok
}

// BlobSize returns the size of a blob, or -1 if absent.
func (d *Device) BlobSize(key blob.ID) int64 {
	b, ok := d.blobs[key]
	if !ok {
		return -1
	}
	return int64(len(b))
}

// Equal reports whether the blob stored under key holds data at off. It
// compares in place, copying nothing and charging nothing; an absent blob,
// or a range that runs past the blob's end, is not equal.
func (d *Device) Equal(key blob.ID, off int64, data []byte) bool {
	b, ok := d.blobs[key]
	end := off + int64(len(data))
	return ok && off >= 0 && end <= int64(len(b)) && bytes.Equal(b[off:end], data)
}

// charge models an n-byte access: the fixed latency overlaps across the
// device's channels (queue depth), while the data transfer serializes on
// the media bandwidth, so concurrent streams share the device's total
// throughput rather than multiplying it. A sticky fault-plan slowdown
// multiplies latency and divides bandwidth.
func (d *Device) charge(p *vtime.Proc, n int64, bw float64) {
	lat := d.prof.Latency
	d.nomBusy += lat + vtime.BytesAt(n, bw)
	if d.inj != nil {
		if s := d.inj.DeviceSlowdown(d.fnode, d.ftier); s > 1 {
			lat = vtime.Duration(float64(lat) * s)
			bw /= s
		}
	}
	d.chans.Acquire(p, 1)
	p.Sleep(lat)
	xfer := vtime.BytesAt(n, bw)
	if xfer > 0 {
		d.bw.Use(p, 1, xfer)
	}
	d.chans.Release(1)
	d.busy += lat + xfer
}

// Write stores data under key, replacing any previous contents, and
// charges write cost. It fails with ErrNoSpace if the device is full.
//
// The device always stores its own copy, never the caller's slice. A
// payload of the stored blob's length is copied over the stored bytes in
// place (every whole-page commit and replica reinstall);
// any other length gets a fresh array of exactly that length, so stored
// blobs carry no capacity slack. The order is charge, injected fault, and
// only then the copy: a failed write leaves the old contents whole.
func (d *Device) Write(p *vtime.Proc, key blob.ID, data []byte) (err error) {
	old := int64(len(d.blobs[key]))
	delta := int64(len(data)) - old
	if delta > d.Free() {
		return &ErrNoSpace{Device: d.name, Need: delta, Free: d.Free()}
	}
	sp := d.enter(p, telemetry.OpDeviceWrite, key)
	defer func() { sp.Exit(p, int64(len(data)), err != nil) }()
	d.charge(p, int64(len(data)), d.prof.WriteBW)
	if d.inj != nil {
		if err := d.inj.DeviceWrite(d.fnode, d.ftier); err != nil {
			return err
		}
	}
	// Looked up again: the charge yielded, and the blob may have been
	// replaced or deleted meanwhile.
	if cur, ok := d.blobs[key]; ok && len(cur) == len(data) {
		copy(cur, data)
	} else {
		d.blobs[key] = fill(d.takeSpare(len(data)), data)
	}
	d.note(delta)
	d.writeOps++
	d.bytesWrite += int64(len(data))
	return nil
}

// WriteAt overwrites a byte range of an existing blob, extending it if the
// range runs past the current end, and charges write cost for the range.
func (d *Device) WriteAt(p *vtime.Proc, key blob.ID, off int64, data []byte) error {
	return d.WriteAtSized(p, key, off, data, 0)
}

// WriteAtSized is WriteAt for a writer that knows the object's final
// extent (a row group, a preallocated file): when the write has to grow
// the object, its array is allocated once with exactly extent bytes of
// capacity, and later extending writes up to that extent reslice instead
// of reallocating and copying the whole object. A writer that names no
// extent (or one below the write's end) gets geometric growth instead:
// the array doubles up to 1 MB and grows by a quarter beyond, so N
// extending writes copy the object O(log N) times, not N, and a large
// object carries at most a quarter of slack. Only the host array is
// sized ahead; the blob's length, Used, Peak and every charge are those
// of WriteAt.
func (d *Device) WriteAtSized(p *vtime.Proc, key blob.ID, off int64, data []byte, extent int64) (err error) {
	blob := d.blobs[key]
	end := off + int64(len(data))
	if end > int64(len(blob)) {
		delta := end - int64(len(blob))
		if delta > d.Free() {
			return &ErrNoSpace{Device: d.name, Need: delta, Free: d.Free()}
		}
		if end <= int64(cap(blob)) {
			blob = blob[:end] // sized ahead and never written: still zero
		} else {
			room := extent
			if room < end {
				room = int64(cap(blob))
				if room < MB {
					room *= 2
				} else {
					room += room / 4
				}
			}
			grown := make([]byte, end, max(end, room))
			copy(grown, blob)
			blob = grown
		}
		d.note(delta)
		d.blobs[key] = blob
	}
	sp := d.enter(p, telemetry.OpDeviceWrite, key)
	defer func() { sp.Exit(p, int64(len(data)), err != nil) }()
	d.charge(p, int64(len(data)), d.prof.WriteBW)
	if d.inj != nil {
		if err := d.inj.DeviceWrite(d.fnode, d.ftier); err != nil {
			return err
		}
	}
	// Looked up again: the charge yielded, and a concurrent write that
	// grew the object past its capacity moved it to a new array.
	if cur := d.blobs[key]; int64(len(cur)) >= end {
		blob = cur
	}
	copy(blob[off:end], data)
	d.writeOps++
	d.bytesWrite += int64(len(data))
	return nil
}

// fill copies src into dst's storage when it is large enough, else into a
// fresh array of exactly len(src) bytes, and returns the copy. Every read
// goes through it: stored bytes are overwritten in place by Write, WriteAt
// and CorruptBit, so a slice aliasing them would change under its holder.
// A nil dst always allocates, so even an empty blob reads as non-nil.
func fill(dst, src []byte) []byte {
	if dst != nil && cap(dst) >= len(src) {
		dst = dst[:len(src)]
		copy(dst, src)
		return dst
	}
	out := make([]byte, len(src)) // make+copy compiles to one unzeroed allocation
	copy(out, src)
	return out
}

// Read returns a copy of the blob and charges read cost. It returns
// ok=false if the blob is absent (no cost is charged for a miss). An
// injected transient fault charges the failed attempt's cost and returns
// (nil, true, err).
func (d *Device) Read(p *vtime.Proc, key blob.ID) ([]byte, bool, error) {
	return d.ReadInto(p, key, nil)
}

// ReadInto is Read reusing dst's storage when it is large enough: the
// blob is copied into dst[:len(blob)] and that slice returned, otherwise
// a fresh buffer is allocated. The returned slice is owned by the caller
// either way (it never aliases device storage); this is the
// allocation-free leg of the page-buffer path.
func (d *Device) ReadInto(p *vtime.Proc, key blob.ID, dst []byte) (out []byte, ok bool, err error) {
	blob, ok := d.blobs[key]
	if !ok {
		return nil, false, nil
	}
	sp := d.enter(p, telemetry.OpDeviceRead, key)
	defer func() { sp.Exit(p, int64(len(blob)), err != nil) }()
	d.charge(p, int64(len(blob)), d.prof.ReadBW)
	if d.inj != nil {
		if err := d.inj.DeviceRead(d.fnode, d.ftier); err != nil {
			return nil, true, err
		}
	}
	d.readOps++
	d.bytesRead += int64(len(blob))
	return fill(dst, blob), true, nil
}

// ReadAtInto reads length bytes of a blob starting at off, reusing dst's
// storage when it is large enough (see ReadInto), and charges read cost
// for the range. Reads past the end are truncated.
func (d *Device) ReadAtInto(p *vtime.Proc, key blob.ID, off, length int64, dst []byte) (out []byte, ok bool, err error) {
	blob, ok := d.blobs[key]
	if !ok {
		return nil, false, nil
	}
	if off >= int64(len(blob)) {
		return nil, true, nil
	}
	end := off + length
	if end > int64(len(blob)) {
		end = int64(len(blob))
	}
	sp := d.enter(p, telemetry.OpDeviceRead, key)
	defer func() { sp.Exit(p, end-off, err != nil) }()
	d.charge(p, end-off, d.prof.ReadBW)
	if d.inj != nil {
		if err := d.inj.DeviceRead(d.fnode, d.ftier); err != nil {
			return nil, true, err
		}
	}
	d.readOps++
	d.bytesRead += end - off
	return fill(dst, blob[off:end]), true, nil
}

// Delete removes a blob, freeing its space. Deleting an absent blob is a
// no-op. Deletion charges only the fixed latency (metadata update).
func (d *Device) Delete(p *vtime.Proc, key blob.ID) {
	blob, ok := d.blobs[key]
	if !ok {
		return
	}
	d.chans.Acquire(p, 1)
	p.Sleep(d.prof.Latency)
	d.chans.Release(1)
	d.note(-int64(len(blob)))
	delete(d.blobs, key)
}

// Adopt moves the blob stored under key from src to d without copying it:
// d takes src's array. It charges what Write of the blob to d followed by
// src.Delete charges, in that order, and fails like Write (ErrNoSpace, an
// injected write fault) with the blob left on src. ok is false when src
// does not hold the blob, before the charge or after it.
func (d *Device) Adopt(p *vtime.Proc, src *Device, key blob.ID) (ok bool, err error) {
	b, ok := src.blobs[key]
	if !ok {
		return false, nil
	}
	n := int64(len(b))
	if delta := n - int64(len(d.blobs[key])); delta > d.Free() {
		return true, &ErrNoSpace{Device: d.name, Need: delta, Free: d.Free()}
	}
	sp := d.enter(p, telemetry.OpDeviceWrite, key)
	d.charge(p, n, d.prof.WriteBW)
	if d.inj != nil {
		if err := d.inj.DeviceWrite(d.fnode, d.ftier); err != nil {
			sp.Exit(p, n, true)
			return true, err
		}
	}
	// Looked up again: the charge yielded, and the blob may have been
	// replaced or deleted meanwhile.
	b, ok = src.blobs[key]
	sp.Exit(p, n, !ok)
	if !ok {
		return false, nil
	}
	d.note(int64(len(b)) - int64(len(d.blobs[key])))
	d.blobs[key] = b
	d.writeOps++
	d.bytesWrite += n
	src.Delete(p, key)
	return true, nil
}

// Purge drops every stored blob without charging virtual time. It models
// a node restarting with cold storage: the cluster wipes a revived
// node's devices before hermes rejoins it, so nothing stale survives the
// crash. The dropped arrays become spares: nothing outside the device
// holds one (reads copy, Adopt moves an array out of the map).
func (d *Device) Purge() {
	d.note(-d.used)
	for _, b := range d.blobs {
		d.spare = append(d.spare, b)
	}
	clear(d.blobs)
}

// takeSpare returns a spare array of exactly n bytes, removing it from
// the spares, or nil when there is none.
func (d *Device) takeSpare(n int) []byte {
	for i := len(d.spare) - 1; i >= 0; i-- {
		if b := d.spare[i]; len(b) == n {
			last := len(d.spare) - 1
			d.spare[i], d.spare[last] = d.spare[last], nil
			d.spare = d.spare[:last]
			return b
		}
	}
	return nil
}

// Drop removes one blob without charging virtual time; dropping an absent
// blob is a no-op. It is how a store that is shutting down gives back the
// space of what only it could read again, so it releases the spares too.
func (d *Device) Drop(key blob.ID) {
	d.spare = nil
	if b, ok := d.blobs[key]; ok {
		d.note(-int64(len(b)))
		delete(d.blobs, key)
	}
}

// CorruptBit flips one bit of a stored blob in place, without charging
// virtual time. It exists to inject the silent hardware corruption the
// MegaMmap checksum extension detects (paper §V "Memory Corruption").
// It reports whether the blob existed and was long enough.
func (d *Device) CorruptBit(key blob.ID, byteOff int64, bit uint) bool {
	blob, ok := d.blobs[key]
	if !ok || byteOff >= int64(len(blob)) {
		return false
	}
	blob[byteOff] ^= 1 << (bit % 8)
	return true
}

// Peek returns a copy of a blob's bytes without charging any virtual
// time. It exists for simulation setup and metadata snooping (e.g. sizing
// a dataset at open) where modeling an access would distort results.
func (d *Device) Peek(key blob.ID) ([]byte, bool) {
	blob, ok := d.blobs[key]
	if !ok {
		return nil, false
	}
	return fill(nil, blob), true
}

// List returns all blob IDs in blob.Less order (deterministic).
func (d *Device) List() []blob.ID {
	keys := make([]blob.ID, 0, len(d.blobs))
	for k := range d.blobs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// Each calls fn with every stored blob ID, in no particular order and
// without List's copy and sort: for a caller that orders what it keeps.
func (d *Device) Each(fn func(blob.ID)) {
	for k := range d.blobs {
		fn(k)
	}
}

// Cost returns the USD cost of the device's full capacity at its $/GB.
func (d *Device) Cost() float64 {
	return float64(d.prof.Capacity) / float64(GB) * d.prof.CostPerGB
}
