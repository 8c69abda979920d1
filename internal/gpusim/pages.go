package gpusim

import "container/list"

// UVMPageSize is the managed-memory migration granularity (2 MiB, the large
// page size the CUDA UVM driver migrates at under heavy access).
const UVMPageSize = 2 * mib

// PageTable models CUDA unified virtual memory at page granularity: each
// tensor owns ceil(bytes/page) pages; access to a non-resident page faults
// and migrates the page (plus fault latency); eviction is page-LRU. The
// page granularity is what amplifies UVM's communication volume relative to
// tensor-granularity migration (§VI-C observation 1).
type PageTable struct {
	Capacity int64 // GPU bytes available for pages

	resident map[int64]int // tensorID -> resident page count
	pages    map[int64]int // tensorID -> total page count
	used     int64
	peak     int64
	order    *list.List // tensor-level LRU over resident tensors
	elements map[int64]*list.Element
}

// NewPageTable creates a UVM page table with the given GPU capacity.
func NewPageTable(capacity int64) *PageTable {
	return &PageTable{
		Capacity: capacity,
		resident: map[int64]int{},
		pages:    map[int64]int{},
		order:    list.New(),
		elements: map[int64]*list.Element{},
	}
}

// PagesOf returns the page count for a tensor of the given size.
func PagesOf(bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	return int((bytes + UVMPageSize - 1) / UVMPageSize)
}

// Peak returns the high-water mark.
func (pt *PageTable) Peak() int64 { return pt.peak }

// Register records a tensor's size; idempotent.
func (pt *PageTable) Register(id, bytes int64) {
	if _, ok := pt.pages[id]; !ok {
		pt.pages[id] = PagesOf(bytes)
	}
}

// MissingPages returns how many of the tensor's pages are absent.
func (pt *PageTable) MissingPages(id int64) int {
	return pt.pages[id] - pt.resident[id]
}

// Access faults in all missing pages of the tensor, evicting page-LRU as
// needed. It returns (faulted pages, evicted pages). The caller converts
// these to time and traffic.
func (pt *PageTable) Access(id int64) (faulted, evicted int) {
	return pt.ensure(id)
}

// Allocate makes the tensor's pages resident without migration — first-touch
// allocation of freshly produced data happens on the device, so only the
// evictions it forces cost anything. Returns the evicted page count.
func (pt *PageTable) Allocate(id int64) (evicted int) {
	_, evicted = pt.ensure(id)
	return evicted
}

func (pt *PageTable) ensure(id int64) (missing, evicted int) {
	need := pt.MissingPages(id)
	if need == 0 {
		pt.touch(id)
		return 0, 0
	}
	needBytes := int64(need) * UVMPageSize
	for pt.used+needBytes > pt.Capacity {
		ev := pt.evictOne(id)
		if ev == 0 {
			break // nothing else to evict; over-subscription caller guards this
		}
		evicted += ev
	}
	pt.resident[id] = pt.pages[id]
	pt.used += needBytes
	if pt.used > pt.peak {
		pt.peak = pt.used
	}
	pt.touch(id)
	return need, evicted
}

// evictOne drops all pages of the least-recently-used tensor other than keep.
func (pt *PageTable) evictOne(keep int64) int {
	for e := pt.order.Front(); e != nil; e = e.Next() {
		id := e.Value.(int64)
		if id == keep {
			continue
		}
		n := pt.resident[id]
		if n == 0 {
			continue
		}
		pt.resident[id] = 0
		pt.used -= int64(n) * UVMPageSize
		pt.order.Remove(e)
		delete(pt.elements, id)
		return n
	}
	return 0
}

func (pt *PageTable) touch(id int64) {
	if e, ok := pt.elements[id]; ok {
		pt.order.MoveToBack(e)
		return
	}
	pt.elements[id] = pt.order.PushBack(id)
}

// Evict explicitly drops a tensor's pages (e.g. freed activations),
// returning the number of pages dropped without generating writeback (the
// caller decides whether the data was dirty).
func (pt *PageTable) Evict(id int64) int {
	n := pt.resident[id]
	if n == 0 {
		return 0
	}
	pt.resident[id] = 0
	pt.used -= int64(n) * UVMPageSize
	if e, ok := pt.elements[id]; ok {
		pt.order.Remove(e)
		delete(pt.elements, id)
	}
	return n
}
