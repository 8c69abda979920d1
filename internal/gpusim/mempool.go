package gpusim

import (
	"fmt"
	"slices"
	"sync"
)

// MemPool is the GPU-resident tensor set with capacity accounting and LRU
// ordering. Policies use it to decide evictions; it does not move data
// itself (transfer timing belongs to the policy's stream schedule).
//
// The implementation is an arena: entries live in one slice linked into an
// intrusive doubly-linked LRU list by index, with a freelist for recycled
// slots. Reset rewinds the arena without releasing its storage, which is what
// lets the runtime reuse one pool across millions of simulated samples (see
// AcquireMemPool) instead of allocating list nodes and maps per sample.
// Residency is a slice indexed by tensor ID: tensor.Registry numbers a
// model's tensors from 1, so it grows to the largest model's tensor count
// (18,300 for the zoo's MoE). Negative IDs are never resident.
type MemPool struct {
	Capacity int64

	used    int64
	peak    int64
	entries []poolEntry // arena; linked by index
	free    []int32     // recycled arena slots
	head    int32       // LRU front = oldest (-1 when empty)
	tail    int32       // LRU back = newest (-1 when empty)
	index   []int32     // tensor id -> arena slot+1; 0 = not resident
}

type poolEntry struct {
	id         int64
	bytes      int64
	prev, next int32
}

// NewMemPool creates a pool with the given capacity in bytes.
func NewMemPool(capacity int64) *MemPool {
	return &MemPool{
		Capacity: capacity,
		head:     -1,
		tail:     -1,
	}
}

// Reset rewinds the pool to empty with a new capacity, keeping the arena and
// index storage for reuse. Every observable property — residency, usage,
// peak — returns to the state of a freshly constructed pool.
// Only index entries the arena names can be set, so only those are zeroed.
func (p *MemPool) Reset(capacity int64) {
	p.Capacity = capacity
	p.used = 0
	p.peak = 0
	for i := range p.entries {
		if id := p.entries[i].id; id >= 0 && id < int64(len(p.index)) {
			p.index[id] = 0
		}
	}
	p.entries = p.entries[:0]
	p.free = p.free[:0]
	p.head, p.tail = -1, -1
}

// Peak returns the high-water mark of resident bytes.
func (p *MemPool) Peak() int64 { return p.peak }

// Free returns remaining capacity.
func (p *MemPool) Free() int64 { return p.Capacity - p.used }

// slot returns the arena slot holding tensor id, or -1 if not resident.
func (p *MemPool) slot(id int64) int32 {
	if id < 0 || id >= int64(len(p.index)) {
		return -1
	}
	return p.index[id] - 1
}

// Resident reports whether tensor id is on the GPU.
func (p *MemPool) Resident(id int64) bool { return p.slot(id) >= 0 }

// unlink detaches a slot from the LRU list without freeing it.
func (p *MemPool) unlink(slot int32) {
	e := &p.entries[slot]
	if e.prev >= 0 {
		p.entries[e.prev].next = e.next
	} else {
		p.head = e.next
	}
	if e.next >= 0 {
		p.entries[e.next].prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushBack appends a slot at the most-recently-used end.
func (p *MemPool) pushBack(slot int32) {
	e := &p.entries[slot]
	e.prev, e.next = p.tail, -1
	if p.tail >= 0 {
		p.entries[p.tail].next = slot
	} else {
		p.head = slot
	}
	p.tail = slot
}

// Add makes tensor id resident. It returns an error if capacity would be
// exceeded — the caller must evict first — or if id is negative.
func (p *MemPool) Add(id, bytes int64) error {
	if p.Resident(id) {
		p.Touch(id)
		return nil
	}
	if id < 0 {
		return fmt.Errorf("gpusim: negative tensor id %d", id)
	}
	if p.used+bytes > p.Capacity {
		return fmt.Errorf("gpusim: pool full: need %d, free %d", bytes, p.Free())
	}
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.entries[slot] = poolEntry{id: id, bytes: bytes, prev: -1, next: -1}
	} else {
		slot = int32(len(p.entries))
		p.entries = append(p.entries, poolEntry{id: id, bytes: bytes, prev: -1, next: -1})
	}
	p.pushBack(slot)
	if n := int(id) + 1; n > len(p.index) {
		p.index = slices.Grow(p.index, n-len(p.index))[:n]
	}
	p.index[id] = slot + 1
	p.used += bytes
	if p.used > p.peak {
		p.peak = p.used
	}
	return nil
}

// Remove evicts tensor id, returning its byte size (0 if absent).
func (p *MemPool) Remove(id int64) int64 {
	slot := p.slot(id)
	if slot < 0 {
		return 0
	}
	bytes := p.entries[slot].bytes
	p.unlink(slot)
	p.free = append(p.free, slot)
	p.index[id] = 0
	p.used -= bytes
	return bytes
}

// Touch marks tensor id most-recently-used.
func (p *MemPool) Touch(id int64) {
	if slot := p.slot(id); slot >= 0 && slot != p.tail {
		p.unlink(slot)
		p.pushBack(slot)
	}
}

// Victims returns the least-recently-used tensors whose combined size is at
// least need bytes. It returns what it found even if insufficient; the
// caller checks coverage.
func (p *MemPool) Victims(need int64) []int64 {
	var out []int64
	var got int64
	for slot := p.head; slot >= 0 && got < need; slot = p.entries[slot].next {
		ent := &p.entries[slot]
		out = append(out, ent.id)
		got += ent.bytes
	}
	return out
}

// memPools recycles MemPools across simulated samples. The arena and index
// keep their storage between uses; Reset restores the observable zero state
// on every release, so a recycled pool is indistinguishable from a fresh one
// (pinned by the pool-hygiene tests).
var memPools = sync.Pool{New: func() any { return NewMemPool(0) }}

// AcquireMemPool returns an empty pool with the given capacity, recycled
// from the process-wide free list when available.
func AcquireMemPool(capacity int64) *MemPool {
	p := memPools.Get().(*MemPool)
	p.Reset(capacity)
	return p
}

// ReleaseMemPool resets p and returns it to the free list. The caller must
// not retain any reference to the pool or to slices obtained from it.
func ReleaseMemPool(p *MemPool) {
	if p == nil {
		return
	}
	p.Reset(0)
	memPools.Put(p)
}
