package gpusim

import (
	"fmt"
	"testing"
)

// poisonPool scribbles a recognizable poison pattern over every piece of
// MemPool state — arena entries, freelist, LRU endpoints, residency index,
// accounting — simulating the worst dirty state a recycled pool could carry.
// Every id the index marks resident is named by an arena entry, as in any
// state the pool's methods can reach; the marks hold out-of-range slots and
// slots of unrelated poisoned entries, and negative-id entries sit between
// them. Reset must erase all of it; any observable difference from a
// fresh pool afterwards is cross-sample state leakage.
func poisonPool(p *MemPool) {
	const poison = int64(-0x5A5A5A5A5A5A5A5A)
	p.used, p.peak = poison, poison
	p.head, p.tail = 0x5A5A, -0x5A5A
	p.entries = p.entries[:0]
	p.index = make([]int32, 48)
	for i := 0; i < 64; i++ {
		id := poison + int64(i)
		if i%2 == 0 {
			id = int64(i / 2)
			if i%4 == 0 {
				p.index[id] = 0x5A5A
			} else {
				p.index[id] = int32(63 - i)
			}
		}
		p.entries = append(p.entries, poolEntry{
			id: id, bytes: poison, prev: 0x5A5A, next: 0x5A5A,
		})
	}
	p.free = p.free[:0]
	for i := int32(0); i < 32; i++ {
		p.free = append(p.free, 0x5A00+i)
	}
}

// poolObservables renders every externally visible property of the pool for
// a fixed id universe, so the differential driver can compare whole states.
func poolObservables(p *MemPool, ids []int64) string {
	s := fmt.Sprintf("cap=%d used=%d peak=%d free=%d resident=%v victims-all=%v victims-half=%v",
		p.Capacity, p.used, p.Peak(), p.Free(), p.ResidentIDs(),
		p.Victims(p.Capacity), p.Victims(p.used/2))
	for _, id := range ids {
		s += fmt.Sprintf(" %d:%v/%d", id, p.Resident(id), p.ResidentBytes(id))
	}
	return s
}

// TestMemPoolResetHygiene is the pool-recycling poison test: a pool whose
// internals were fully poisoned and then Reset must be behaviorally
// indistinguishable from a freshly constructed pool across a long
// deterministic mixed op sequence — same accounting, same residency, same
// LRU/victim order, same Add errors, op for op.
func TestMemPoolResetHygiene(t *testing.T) {
	const capacity = 1 << 12
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8}

	recycled := NewMemPool(0)
	poisonPool(recycled)
	recycled.Reset(capacity)
	fresh := NewMemPool(capacity)

	if got, want := poolObservables(recycled, ids), poolObservables(fresh, ids); got != want {
		t.Fatalf("poisoned pool differs from fresh immediately after Reset:\n got %s\nwant %s", got, want)
	}

	rng := uint64(0x9E3779B97F4A7C15) // SplitMix64-style deterministic driver
	next := func(n uint64) uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return (z ^ (z >> 31)) % n
	}
	for step := 0; step < 4000; step++ {
		id := ids[next(uint64(len(ids)))]
		bytes := int64(next(1<<10) + 1)
		var gotErr, wantErr error
		switch next(4) {
		case 0, 1:
			gotErr, wantErr = recycled.Add(id, bytes), fresh.Add(id, bytes)
		case 2:
			recycled.Remove(id)
			fresh.Remove(id)
		case 3:
			recycled.Touch(id)
			fresh.Touch(id)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: Add error diverges: recycled=%v fresh=%v", step, gotErr, wantErr)
		}
		if got, want := poolObservables(recycled, ids), poolObservables(fresh, ids); got != want {
			t.Fatalf("step %d: recycled pool diverged from fresh:\n got %s\nwant %s", step, got, want)
		}
	}
}

// TestMemPoolAcquireReleaseClean pins the sync.Pool funnel the simulator hot
// path uses: whatever AcquireMemPool hands out after arbitrary prior use —
// residents, peak pressure — presents the zero state, and its victims name
// only tensors added since.
func TestMemPoolAcquireReleaseClean(t *testing.T) {
	p := AcquireMemPool(1 << 20)
	for i := int64(1); i <= 16; i++ {
		if err := p.Add(i, 1<<12); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	ReleaseMemPool(p)

	q := AcquireMemPool(1 << 10)
	if q.used != 0 || q.Peak() != 0 || q.Free() != 1<<10 || len(q.ResidentIDs()) != 0 {
		t.Fatalf("recycled pool not clean: used=%d peak=%d free=%d resident=%v",
			q.used, q.Peak(), q.Free(), q.ResidentIDs())
	}
	if q.Resident(1) || q.ResidentBytes(1) != 0 {
		t.Fatal("tensor from a previous life still resident")
	}
	if err := q.Add(1, 512); err != nil {
		t.Fatalf("Add on recycled pool: %v", err)
	}
	if v := q.Victims(q.Capacity); len(v) != 1 || v[0] != 1 {
		t.Fatalf("victims of a recycled pool name a previous life: victims=%v", v)
	}
	if err := q.Add(2, 1024); err == nil {
		t.Fatal("capacity from a previous life leaked: oversized Add accepted")
	}
	ReleaseMemPool(q)
	ReleaseMemPool(nil) // must be a no-op
}
