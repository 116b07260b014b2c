// Package kvstore implements the paper's Fig. 3 "read, write, and append
// global" case study: a distributed key-value store whose table lives in
// a MegaMmap shared vector. Reads and writes hit the same region
// simultaneously from every rank; single-page transactions are atomic
// because the runtime serializes same-page MemoryTasks, and probe windows
// that may span pages take a striped distributed lock, exactly the
// escalation rule the paper prescribes.
//
// The table is open-addressed with linear probing and tombstone deletes;
// slots are fixed-size records so the store works over any tier the
// pages land on.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"megammap/internal/core"
)

// Slot states.
const (
	slotEmpty int8 = iota
	slotFull
	slotTombstone
)

// Slot is one table entry.
type Slot struct {
	Key   uint64
	Val   int64
	State int8
}

// SlotSize is the encoded slot size in bytes.
const SlotSize = 24

// SlotCodec encodes slots for MegaMmap vectors. It does not declare
// MemoryImage: a Slot in memory ends in 7 padding bytes that Encode never
// writes, so copying slots would put whatever the padding held into pages.
type SlotCodec struct{}

// Size implements core.Codec.
func (SlotCodec) Size() int { return SlotSize }

// Encode implements core.Codec.
func (SlotCodec) Encode(dst []byte, s Slot) {
	binary.LittleEndian.PutUint64(dst, s.Key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(s.Val))
	dst[16] = byte(s.State)
}

// Decode implements core.Codec.
func (SlotCodec) Decode(src []byte) Slot {
	return Slot{
		Key:   binary.LittleEndian.Uint64(src),
		Val:   int64(binary.LittleEndian.Uint64(src[8:])),
		State: int8(src[16]),
	}
}

// ErrFull reports that a Put found no free slot within the probe limit.
var ErrFull = errors.New("kvstore: table full (probe limit reached)")

// stripes is the number of lock stripes a table is divided into.
const stripes = 16

// Store is a shared key-value table handle; every rank opens its own.
type Store struct {
	cl       *core.Client
	v        *core.Vector[Slot]
	capacity int64
	probeMax int64
	// locks are the stripes' distributed-lock names ("<name>/stripe<i>"),
	// resolved once here so an operation formats nothing.
	locks [stripes]string
}

// Open connects to (or creates) the named store with the given slot
// capacity (fixed at creation, rounded up to a power of two).
func Open(cl *core.Client, name string, capacity int64, opts ...core.VectorOpt) (*Store, error) {
	cap2 := int64(1)
	for cap2 < capacity {
		cap2 <<= 1
	}
	v, err := core.Open[Slot](cl, name, SlotCodec{}, opts...)
	if err != nil {
		return nil, err
	}
	if v.Len() == 0 {
		v.Resize(cap2)
	} else if v.Len() != cap2 {
		return nil, fmt.Errorf("kvstore: %q has capacity %d, want %d", name, v.Len(), cap2)
	}
	probe := cap2
	if probe > 64 {
		probe = 64
	}
	s := &Store{cl: cl, v: v, capacity: cap2, probeMax: probe}
	for i := range s.locks {
		s.locks[i] = name + "/stripe" + strconv.Itoa(i)
	}
	return s, nil
}

// BoundMemory caps this handle's page cache at maxBytes (0 = unbounded);
// the serving plane actuates per-tenant fast-tier quotas through it.
func (s *Store) BoundMemory(maxBytes int64) { s.v.BoundMemory(maxBytes) }

// hash mixes a key into a slot index.
func (s *Store) hash(key uint64) int64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return int64(key & uint64(s.capacity-1))
}

// stripeSpan returns the slots covered by one lock stripe; it is at
// least the probe window, so any window touches at most two stripes.
func (s *Store) stripeSpan() int64 {
	span := s.capacity / stripes
	if span < s.probeMax {
		span = s.probeMax
	}
	return span
}

// heldStripes are the one or two lock stripes (lo <= hi) an operation
// holds over its probe window.
type heldStripes struct{ lo, hi int64 }

// lockWindow acquires the stripe locks covering the probe window
// starting at home, in ascending stripe order (deadlock-free), and
// returns them for unlockWindow. Two keys whose probe chains overlap are
// always serialized by a common stripe, so concurrent inserts can never
// claim the same empty slot.
func (s *Store) lockWindow(home int64) heldStripes {
	span := s.stripeSpan()
	h := heldStripes{lo: home / span, hi: ((home + s.probeMax - 1) & (s.capacity - 1)) / span}
	if h.hi < h.lo {
		h.lo, h.hi = h.hi, h.lo
	}
	s.cl.Lock(s.locks[h.lo])
	if h.hi != h.lo {
		s.cl.Lock(s.locks[h.hi])
	}
	return h
}

// unlockWindow releases what lockWindow took, in reverse order.
func (s *Store) unlockWindow(h heldStripes) {
	if h.hi != h.lo {
		s.cl.Unlock(s.locks[h.hi])
	}
	s.cl.Unlock(s.locks[h.lo])
}

// probeTx opens a read-write global transaction over the probe window
// starting at the key's home slot (wrapping windows split the declared
// range at the table end; correctness does not depend on the hint).
func (s *Store) probeTx(home int64) {
	n := s.probeMax
	if home+n > s.capacity {
		n = s.capacity - home
	}
	s.v.SeqTxBegin(home, n, core.ReadWrite|core.Global)
}

// Put inserts or updates a key. The probe window may cross pages, so the
// operation holds the key's stripe lock (paper: multi-page transactions
// escalate to synchronization primitives).
func (s *Store) Put(key uint64, val int64) error {
	home := s.hash(key)
	defer s.unlockWindow(s.lockWindow(home))
	s.probeTx(home)
	defer s.v.TxEnd()
	firstFree := int64(-1)
	for i := int64(0); i < s.probeMax; i++ {
		idx := (home + i) & (s.capacity - 1)
		slot := s.v.Get(idx)
		switch {
		case slot.State == slotFull && slot.Key == key:
			s.v.Set(idx, Slot{Key: key, Val: val, State: slotFull})
			return nil
		case slot.State == slotEmpty:
			if firstFree < 0 {
				firstFree = idx
			}
			// An empty slot ends the probe chain.
			s.v.Set(firstFree, Slot{Key: key, Val: val, State: slotFull})
			return nil
		case slot.State == slotTombstone && firstFree < 0:
			firstFree = idx
		}
	}
	if firstFree >= 0 {
		s.v.Set(firstFree, Slot{Key: key, Val: val, State: slotFull})
		return nil
	}
	return ErrFull
}

// Get looks a key up.
func (s *Store) Get(key uint64) (int64, bool) {
	home := s.hash(key)
	defer s.unlockWindow(s.lockWindow(home))
	s.probeTx(home)
	defer s.v.TxEnd()
	for i := int64(0); i < s.probeMax; i++ {
		idx := (home + i) & (s.capacity - 1)
		slot := s.v.Get(idx)
		switch {
		case slot.State == slotFull && slot.Key == key:
			return slot.Val, true
		case slot.State == slotEmpty:
			return 0, false
		}
	}
	return 0, false
}

// Delete removes a key, reporting whether it was present.
func (s *Store) Delete(key uint64) bool {
	home := s.hash(key)
	defer s.unlockWindow(s.lockWindow(home))
	s.probeTx(home)
	defer s.v.TxEnd()
	for i := int64(0); i < s.probeMax; i++ {
		idx := (home + i) & (s.capacity - 1)
		slot := s.v.Get(idx)
		switch {
		case slot.State == slotFull && slot.Key == key:
			s.v.Set(idx, Slot{State: slotTombstone})
			return true
		case slot.State == slotEmpty:
			return false
		}
	}
	return false
}

// Len counts live entries (a full scan; diagnostics).
func (s *Store) Len() int64 {
	var n int64
	s.v.SeqTxBegin(0, s.capacity, core.ReadOnly|core.Global)
	for _, slot := range s.v.All(0, s.capacity) {
		if slot.State == slotFull {
			n++
		}
	}
	s.v.TxEnd()
	return n
}
