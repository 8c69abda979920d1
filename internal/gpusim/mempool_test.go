package gpusim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// poolModel is the reference MemPool: a map of resident sizes plus an
// explicit LRU list (oldest first). It shares no code with the arena.
type poolModel struct {
	capacity, used, peak int64
	bytes                map[int64]int64
	lru                  []int64
	pinned               map[int64]bool
}

func newPoolModel(capacity int64) *poolModel {
	return &poolModel{capacity: capacity, bytes: map[int64]int64{}, pinned: map[int64]bool{}}
}

func (m *poolModel) touch(id int64) {
	i := slices.Index(m.lru, id)
	m.lru = append(slices.Delete(m.lru, i, i+1), id)
}

func (m *poolModel) add(id, bytes int64) bool {
	if _, ok := m.bytes[id]; ok {
		m.touch(id)
		return true
	}
	if id < 0 || m.used+bytes > m.capacity {
		return false
	}
	m.bytes[id] = bytes
	m.lru = append(m.lru, id)
	m.used += bytes
	m.peak = max(m.peak, m.used)
	return true
}

func (m *poolModel) remove(id int64) int64 {
	b, ok := m.bytes[id]
	if !ok {
		return 0
	}
	delete(m.bytes, id)
	delete(m.pinned, id)
	i := slices.Index(m.lru, id)
	m.lru = slices.Delete(m.lru, i, i+1)
	m.used -= b
	return b
}

func (m *poolModel) victims(need int64, keep func(int64) bool) []int64 {
	var out []int64
	var got int64
	for _, id := range m.lru {
		if got >= need {
			break
		}
		if m.pinned[id] || (keep != nil && keep(id)) {
			continue
		}
		out = append(out, id)
		got += m.bytes[id]
	}
	return out
}

// fuzzIDs is FuzzMemPool's tensor-ID universe: sparse, up to 1<<15, with
// negatives and zero.
var fuzzIDs = []int64{-1 << 40, -7, -1, 0, 1, 2, 3, 5, 8, 300, 1023, 4096, 9000, 18300, 1<<15 - 1, 1 << 15}

// runPoolProgram interprets prog as a sequence of 4-byte MemPool operations
// over the tensor IDs ids and checks a pool from AcquireMemPool against
// poolModel after every one. It returns the first divergence.
func runPoolProgram(prog []byte, ids []int64) error {
	const capacity = 1 << 12
	p := AcquireMemPool(capacity)
	defer func() { ReleaseMemPool(p) }()
	m := newPoolModel(capacity)
	for step := 0; len(prog) >= 4; step, prog = step+1, prog[4:] {
		id := ids[int(prog[1])%len(ids)]
		bytes := int64(prog[2])<<3 | int64(prog[3]&7)
		switch prog[0] % 10 {
		case 0, 1, 2:
			err := p.Add(id, bytes)
			if ok := m.add(id, bytes); ok != (err == nil) {
				return fmt.Errorf("step %d: Add(%d, %d) = %v, model accepts %v", step, id, bytes, err, ok)
			}
		case 3, 4:
			if got, want := p.Remove(id), m.remove(id); got != want {
				return fmt.Errorf("step %d: Remove(%d) = %d, want %d", step, id, got, want)
			}
		case 5:
			p.Touch(id)
			if _, ok := m.bytes[id]; ok {
				m.touch(id)
			}
		case 6:
			p.Pin(id)
			m.pinned[id] = true
		case 7:
			if prog[3]&1 == 0 {
				p.Unpin(id)
				delete(m.pinned, id)
			} else {
				p.UnpinAll()
				clear(m.pinned)
			}
		case 8:
			keep := func(id int64) bool { return id%2 != 0 }
			if prog[3]&1 == 0 {
				keep = nil
			}
			if got, want := p.Victims(bytes, keep), m.victims(bytes, keep); !slices.Equal(got, want) {
				return fmt.Errorf("step %d: Victims(%d) = %v, want %v", step, bytes, got, want)
			}
		case 9:
			if prog[3]&1 == 0 {
				p.Reset(capacity)
			} else {
				ReleaseMemPool(p)
				p = AcquireMemPool(capacity)
			}
			m = newPoolModel(capacity)
		}
		if p.Used() != m.used || p.Peak() != m.peak || p.Free() != m.capacity-m.used {
			return fmt.Errorf("step %d: used/peak/free = %d/%d/%d, want %d/%d/%d",
				step, p.Used(), p.Peak(), p.Free(), m.used, m.peak, m.capacity-m.used)
		}
		if got := p.ResidentIDs(); !slices.Equal(got, m.lru) {
			return fmt.Errorf("step %d: ResidentIDs = %v, want %v", step, got, m.lru)
		}
		for _, id := range ids {
			if _, ok := m.bytes[id]; p.Resident(id) != ok || p.ResidentBytes(id) != m.bytes[id] {
				return fmt.Errorf("step %d: tensor %d resident=%v/%d, want %d", step, id, p.Resident(id), p.ResidentBytes(id), m.bytes[id])
			}
		}
	}
	return nil
}

// TestMemPoolMatchesModel drives random operation sequences over random
// sparse ID sets, negatives included, through recycled pools and the
// map-backed model.
func TestMemPoolMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ids := make([]int64, 1+rng.Intn(16))
		for i := range ids {
			ids[i] = rng.Int63n(1<<15 + 1)
			if rng.Intn(8) == 0 {
				ids[i] = -1 - ids[i]
			}
		}
		prog := make([]byte, 4*rng.Intn(400))
		rng.Read(prog)
		if err := runPoolProgram(prog, ids); err != nil {
			t.Fatalf("trial %d (ids %v): %v", trial, ids, err)
		}
	}
}

func FuzzMemPool(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 0, 5, 2, 0, 5, 4, 0, 0, 8, 0, 255, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runPoolProgram(prog, fuzzIDs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMemPoolAddRemoveAllocFree pins the hot-path cost: once the pool has
// seen an id, adding and removing it allocates nothing.
func TestMemPoolAddRemoveAllocFree(t *testing.T) {
	p := NewMemPool(1 << 20)
	cycle := func() {
		for id := int64(1); id <= 64; id++ {
			if err := p.Add(id*271, 1<<10); err != nil {
				t.Fatal(err)
			}
		}
		for id := int64(1); id <= 64; id++ {
			p.Remove(id * 271)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm Add/Remove cycle allocates %v times", n)
	}
}
