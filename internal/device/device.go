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
	"errors"
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
	used  int64 // stored bytes, as peak
	held  int64 // reserved by writes in flight (Reserve)
	peak  int64
	chans *vtime.Resource // queue depth: latency phases overlap
	bw    *vtime.Resource // media bandwidth: transfers serialize
	// blobs holds each stored blob's handle, of which the device is one
	// holder.
	blobs map[blob.ID]*Lease
	// arrays recycles the arrays of deleted, resized and purged blobs into
	// the next writes of a new length, and hands out the handles (shared
	// cluster-wide by ShareArrays).
	arrays *Arrays

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

	// onUsed observers fire on every change to the stored-byte count or
	// to Free; cluster aggregates and the hermes placement index subscribe
	// so capacity queries never walk devices.
	onUsed []func(delta int64)
}

// New returns a device with the given name and profile.
func New(name string, prof Profile) *Device {
	if prof.Channels <= 0 {
		prof.Channels = 1
	}
	return &Device{
		prof:   prof,
		name:   name,
		chans:  vtime.NewResource(prof.Channels),
		bw:     vtime.NewResource(1),
		blobs:  make(map[blob.ID]*Lease),
		arrays: NewArrays(),
	}
}

// ShareArrays makes the device recycle stored arrays through a, which
// other devices may share (cluster.New gives every node and pool device
// and the PFS one, so that a range one lends another may store). Call it
// before the device stores anything.
func (d *Device) ShareArrays(a *Arrays) { d.arrays = a }

// own returns h, the handle stored under key, as one only the device
// holds: a shared handle's bytes are copied to an array of their own class
// first, under a fresh handle the blob keeps, and the device lets go of
// the shared one. Every writer that changes stored bytes in place goes
// through it.
func (d *Device) own(key blob.ID, h *Lease) *Lease {
	if !h.Shared() {
		return h
	}
	nh := d.arrays.handle(d.arrays.take(len(h.buf)), nil)
	copy(nh.buf, h.buf)
	d.arrays.drop(h, recycle)
	d.blobs[key] = nh
	return nh
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

// StoredBytes sums the lengths of the stored blobs, without charging
// virtual time or allocating: what Used must equal, for an audit.
func (d *Device) StoredBytes() int64 {
	var n int64
	for _, h := range d.blobs {
		n += int64(len(h.buf))
	}
	return n
}

// Free returns the capacity in bytes neither stored nor reserved.
func (d *Device) Free() int64 { return d.prof.Capacity - d.used - d.held }

// Held returns the bytes reserved for writes in flight.
func (d *Device) Held() int64 { return d.held }

// Peak returns the high-water mark of stored bytes.
func (d *Device) Peak() int64 { return d.peak }

// OnUsedChange registers an observer of the device's space: fn fires with
// the stored-byte delta on every write, grow, delete, and purge, and with
// 0 when only a reservation moved Free. Observers must not perform I/O.
func (d *Device) OnUsedChange(fn func(delta int64)) { d.onUsed = append(d.onUsed, fn) }

func (d *Device) note(used, held int64) {
	if used == 0 && held == 0 {
		return
	}
	d.used += used
	d.held += held
	d.peak = max(d.peak, d.used)
	for _, fn := range d.onUsed {
		fn(used)
	}
}

// Reserve is the device's one capacity check: it holds room for what
// storing n bytes under key adds to the blob stored now, and returns the
// bytes held (0 if nothing grows) or ErrNoSpace. A writer reserves before
// its first yield, writes with WriteHeld, which settles the hold, and
// defers Unreserve, which gives back what no write settled.
func (d *Device) Reserve(key blob.ID, n int64) (int64, error) {
	delta := n - int64(len(d.blobs[key].Bytes()))
	if delta <= 0 {
		return 0, nil
	}
	if delta > d.Free() {
		return 0, &ErrNoSpace{Device: d.name, Need: delta, Free: d.Free()}
	}
	d.note(0, delta)
	return delta, nil
}

// Unreserve gives back what is left of a hold, and zeroes it.
func (d *Device) Unreserve(held *int64) { d.settle(held, 0) }

// settle turns a hold into the delta its write adds to the blob stored
// as it lands, which a concurrent write or delete of the key may have
// changed. It fails, the hold kept, when delta outgrows the hold and Free
// together, so Used never passes Capacity.
func (d *Device) settle(held *int64, delta int64) error {
	if room := *held + d.Free(); delta > room {
		return &ErrNoSpace{Device: d.name, Need: delta, Free: room}
	}
	d.note(delta, -*held)
	*held = 0
	return nil
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

// BlobSize returns the size of a blob, or -1 if absent.
func (d *Device) BlobSize(key blob.ID) int64 {
	h, ok := d.blobs[key]
	if !ok {
		return -1
	}
	return int64(len(h.buf))
}

// Equal reports whether the blob stored under key holds data at off. It
// compares in place, copying nothing and charging nothing; an absent blob,
// or a range that runs past the blob's end, is not equal.
func (d *Device) Equal(key blob.ID, off int64, data []byte) bool {
	h, ok := d.blobs[key]
	end := off + int64(len(data))
	return ok && off >= 0 && end <= int64(len(h.buf)) && bytes.Equal(h.buf[off:end], data)
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
// It is Reserve, WriteHeld storing a copy, and Unreserve.
func (d *Device) Write(p *vtime.Proc, key blob.ID, data []byte) error {
	held, err := d.Reserve(key, int64(len(data)))
	if err != nil {
		return err
	}
	defer d.Unreserve(&held)
	return d.WriteHeld(p, key, data, &held, nil)
}

// WriteHeld is the device's whole-blob write, through a hold its caller
// took with Reserve: it stores data under key, replacing any previous
// contents. A write that lands settles the hold; a failed one leaves it
// for a retry or Unreserve, and the old contents whole. The order is
// charge, injected fault, and only then the store (landWrite).
//
// With lent nil the device stores its own copy, never the caller's slice.
// A payload of the stored blob's length is copied over the stored bytes
// in place (every whole-page commit and replica reinstall) unless they
// are shared; any other length, or a shared array, takes an array of its
// size class from the recycler (or a fresh one) and lets go of the
// replaced one, so the array's capacity is what the heap charges for the
// length anyway.
//
// lent, when not nil, is data's handle, held by the caller (Arrays.Take,
// ReadAtLease), and the device stores it instead of a copy: a write that
// lands makes the device a holder of lent beside the caller, so its
// bytes are immutable from then on and the caller may go on reading
// them. A failed write leaves lent as it was. The payload and its handle
// stay two parameters so that data never escapes its caller's frame.
func (d *Device) WriteHeld(p *vtime.Proc, key blob.ID, data []byte, held *int64, lent *Lease) error {
	return d.landWrite(p, key, int64(len(data)), func() error {
		// Settled from what is replaced: the charge yielded, and the blob
		// may have been replaced or deleted meanwhile.
		cur, ok := d.blobs[key]
		if err := d.settle(held, int64(len(data))-int64(len(cur.Bytes()))); err != nil {
			return err
		}
		switch {
		case lent != nil:
			d.arrays.store(lent) // first: a re-put of the handle the blob stores keeps it
			if ok {
				d.arrays.drop(cur, recycle)
			}
			d.blobs[key] = lent
		case ok && !cur.Shared():
			if len(cur.buf) != len(data) {
				d.arrays.put(cur.buf, false) // first: a resize within its class gets it back
				cur.buf = d.arrays.take(len(data))
			}
			copy(cur.buf, data)
		default:
			if ok {
				d.arrays.drop(cur, recycle)
			}
			h := d.arrays.handle(d.arrays.take(len(data)), nil)
			copy(h.buf, data)
			d.blobs[key] = h
		}
		return nil
	})
}

// landWrite is the step every write shares: under a device-write span for
// key it charges an n-byte write, meets the injected write fault, and
// only then runs land, which puts the bytes in place or fails (a hold
// the write outgrew, a source that let go of its blob); a write that
// lands counts n bytes written. A write fails with the first error.
func (d *Device) landWrite(p *vtime.Proc, key blob.ID, n int64, land func() error) (err error) {
	sp := d.enter(p, telemetry.OpDeviceWrite, key)
	defer func() { sp.Exit(p, n, err != nil) }()
	d.charge(p, n, d.prof.WriteBW)
	if d.inj != nil {
		if err := d.inj.DeviceWrite(d.fnode, d.ftier); err != nil {
			return err
		}
	}
	if err := land(); err != nil {
		return err
	}
	d.writeOps++
	d.bytesWrite += n
	return nil
}

// WriteAtSized is the device's range write: it overwrites a byte range of
// a blob, extending it (creating an absent one) if the range runs past
// the current end, and charges write cost for the range. extent is the
// object's final extent, for a writer that knows it (a row group, a
// preallocated file): when the write has to grow the object, its array is
// allocated once with exactly extent bytes of capacity, and later
// extending writes up to that extent reslice instead of reallocating and
// copying the whole object. An extent of 0 (or one below the write's end)
// gets geometric growth instead: the array doubles up to 1 MB and grows
// by a quarter beyond, so N extending writes copy the object O(log N)
// times, not N, and a large object carries at most a quarter of slack.
// Only the host array is sized ahead; the blob's length, Used, Peak and
// every charge are the range's whatever the extent.
func (d *Device) WriteAtSized(p *vtime.Proc, key blob.ID, off int64, data []byte, extent int64) error {
	h := d.blobs[key]
	blob := h.Bytes()
	end := off + int64(len(data))
	if end > int64(len(blob)) {
		held, err := d.Reserve(key, end)
		if err != nil {
			return err
		}
		d.note(held, -held) // the zero-filled growth is stored at once
		if end <= int64(cap(blob)) && !h.Shared() {
			h.buf = blob[:end] // sized ahead and never written: still zero
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
			grown := d.arrays.handle(make([]byte, end, max(end, room)), nil)
			copy(grown.buf, blob)
			if h != nil {
				d.arrays.drop(h, forget)
			}
			d.blobs[key] = grown
		}
	}
	return d.landWrite(p, key, int64(len(data)), func() error {
		// Looked up again: the charge yielded, and a concurrent write may
		// have moved the object to a new array, or replaced or deleted it
		// (then its old array may already serve another blob, and the
		// range lands nowhere, as it would have in an array no blob
		// holds). A holder that came meanwhile makes the write copy the
		// array first.
		if cur, ok := d.blobs[key]; ok && int64(len(cur.buf)) >= end {
			copy(d.own(key, cur).buf[off:end], data)
		}
		return nil
	})
}

// Read returns a copy of the blob and charges read cost. It returns
// ok=false if the blob is absent (no cost is charged for a miss). An
// injected transient fault charges the failed attempt's cost and returns
// (nil, true, err). It is ReadLease with the copy the caller would make:
// the bytes are those stored when the read started.
func (d *Device) Read(p *vtime.Proc, key blob.ID) ([]byte, bool, error) {
	h, ok, err := d.ReadLease(p, key)
	if !ok || err != nil {
		return nil, ok, err
	}
	out := make([]byte, len(h.buf)) // make+copy compiles to one unzeroed allocation
	copy(out, h.buf)
	d.arrays.Release(h)
	return out, true, nil
}

// ReadLease is the device's read: it charges latency plus the blob's
// bytes at the read bandwidth, and returns the stored blob's handle
// itself, with the caller made a holder when the read starts
// (Arrays.Lease), so it returns the bytes stored then: a writer that
// changes them meanwhile copies them first. The caller gives the lease
// back with Arrays.Release once it is done with them, and copies them
// first if it keeps them longer. A failed read holds no lease.
func (d *Device) ReadLease(p *vtime.Proc, key blob.ID) (h *Lease, ok bool, err error) {
	h, ok = d.blobs[key]
	if !ok {
		return nil, false, nil
	}
	d.arrays.Lease(h)
	if err = d.finishRead(p, key, int64(len(h.buf))); err != nil {
		d.arrays.Release(h)
		return nil, true, err
	}
	return h, true, nil
}

// finishRead charges a read of n bytes, leased as the read started, and
// returns the injected fault the read meets.
func (d *Device) finishRead(p *vtime.Proc, key blob.ID, n int64) (err error) {
	sp := d.enter(p, telemetry.OpDeviceRead, key)
	defer func() { sp.Exit(p, n, err != nil) }()
	d.charge(p, n, d.prof.ReadBW)
	if d.inj != nil {
		if err := d.inj.DeviceRead(d.fnode, d.ftier); err != nil {
			return err
		}
	}
	d.readOps++
	d.bytesRead += n
	return nil
}

// ReadAtLease reads length bytes of a blob starting at off, truncated at
// the blob's end, and charges read cost for the range. It returns the
// stored bytes themselves, blob[off:end:end], as a range borrowed under a
// handle of its own made when the read starts (Arrays), which holds the
// stored blob's handle, so it returns the bytes stored then. The caller
// gives the lease back with Arrays.Release. A read that starts past the
// end returns no lease and charges nothing; a failed read holds none.
func (d *Device) ReadAtLease(p *vtime.Proc, key blob.ID, off, length int64) (r *Lease, ok bool, err error) {
	h, ok := d.blobs[key]
	if !ok {
		return nil, false, nil
	}
	if off >= int64(len(h.buf)) {
		return nil, true, nil
	}
	r = d.arrays.lend(h, off, min(off+length, int64(len(h.buf))))
	if err = d.finishRead(p, key, int64(len(r.buf))); err != nil {
		d.arrays.Release(r)
		return nil, true, err
	}
	return r, true, nil
}

// Delete removes a blob, freeing its space, and lets go of its handle,
// whose last holder recycles the array. Deleting an absent blob is a no-op. Deletion charges only the
// fixed latency (metadata update); what it removes and accounts is the
// blob stored when that latency ends.
func (d *Device) Delete(p *vtime.Proc, key blob.ID) {
	if _, ok := d.blobs[key]; !ok {
		return
	}
	d.chans.Acquire(p, 1)
	p.Sleep(d.prof.Latency)
	d.chans.Release(1)
	if h, ok := d.blobs[key]; ok {
		d.note(-int64(len(h.buf)), 0)
		delete(d.blobs, key)
		d.arrays.drop(h, recycle)
	}
}

// Adopt moves the blob stored under key from src to d without copying it:
// d becomes a holder of src's handle, and src lets go of it. It charges
// what Write of the blob to d followed by src.Delete charges, in that
// order, and fails like Write (ErrNoSpace, an injected write fault) with
// the blob left on src. ok is false when src does not hold the blob,
// before the charge or after it. The handle d holds is the one src stores
// once the charge has yielded, not one leased before it: an in-place
// writer may have replaced src's array meanwhile.
func (d *Device) Adopt(p *vtime.Proc, src *Device, key blob.ID) (ok bool, err error) {
	h, ok := src.blobs[key]
	if !ok {
		return false, nil
	}
	n := int64(len(h.buf))
	held, err := d.Reserve(key, n)
	if err != nil {
		return true, err
	}
	defer d.Unreserve(&held)
	err = d.landWrite(p, key, n, func() error {
		if h, ok = src.blobs[key]; !ok {
			return errGone
		}
		if err := d.settle(&held, int64(len(h.buf))-int64(len(d.blobs[key].Bytes()))); err != nil {
			return err
		}
		h.refs++ // d's hold, before anything lets go of it
		if old, had := d.blobs[key]; had {
			d.arrays.drop(old, recycle)
		}
		d.blobs[key] = h
		return nil
	})
	if !ok {
		return false, nil
	}
	if err != nil {
		return true, err
	}
	src.Delete(p, key)
	return true, nil
}

// errGone fails an Adopt whose source let go of the blob while the write
// was charged; Adopt reports it as ok=false.
var errGone = errors.New("device: adopted blob gone from its source")

// Purge drops every stored blob without charging virtual time. It models
// a node restarting with cold storage: the cluster wipes a revived
// node's devices before hermes rejoins it, so nothing stale survives the
// crash. The dropped arrays all go to the recycler, past its per-class
// stock: the revived node stores about what it held again, and reuses
// them.
func (d *Device) Purge() {
	d.note(-d.used, 0)
	for _, h := range d.blobs {
		d.arrays.drop(h, recycleAll)
	}
	clear(d.blobs)
}

// Drop removes one blob without charging virtual time; dropping an absent
// blob is a no-op. It is how a store that is shutting down gives back the
// space of what only it could read again, so it also empties the
// recycler, and recycles nothing: it only gives back its hold.
func (d *Device) Drop(key blob.ID) {
	if h, ok := d.blobs[key]; ok {
		d.note(-int64(len(h.buf)), 0)
		delete(d.blobs, key)
		d.arrays.drop(h, forget)
	}
	d.arrays.release()
}

// CorruptBit flips one bit of a stored blob in place, without charging
// virtual time. It exists to inject the silent hardware corruption the
// MegaMmap checksum extension detects (paper §V "Memory Corruption").
// It reports whether the blob existed and was long enough.
func (d *Device) CorruptBit(key blob.ID, byteOff int64, bit uint) bool {
	h, ok := d.blobs[key]
	if !ok || byteOff >= int64(len(h.buf)) {
		return false
	}
	d.own(key, h).buf[byteOff] ^= 1 << (bit % 8) // another holder keeps the bytes it read
	return true
}

// Truncate cuts a blob to size bytes, charging only the fixed latency (a
// metadata update, as Delete); a blob of at most size bytes, or an absent
// one, is left alone. The array keeps its capacity, zero past the new
// length, so a later extending WriteAtSized reads zeros there.
func (d *Device) Truncate(p *vtime.Proc, key blob.ID, size int64) {
	if h, ok := d.blobs[key]; !ok || int64(len(h.buf)) <= size {
		return
	}
	d.chans.Acquire(p, 1)
	p.Sleep(d.prof.Latency)
	d.chans.Release(1)
	if h := d.blobs[key]; int64(len(h.Bytes())) > size {
		h = d.own(key, h)
		clear(h.buf[size:])
		d.note(size-int64(len(h.buf)), 0)
		h.buf = h.buf[:size]
	}
}

// Peek returns a copy of a blob's bytes without charging any virtual
// time. It exists for simulation setup and metadata snooping (e.g. sizing
// a dataset at open) where modeling an access would distort results.
func (d *Device) Peek(key blob.ID) ([]byte, bool) {
	h, ok := d.blobs[key]
	if !ok {
		return nil, false
	}
	return bytes.Clone(h.buf), true
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
