package serve

import (
	"math"
	"slices"
	"testing"

	"dynnoffload/internal/pilot"
)

// TestSelectBatch pins batch admission: a request joins the forming batch
// when its context matches the anchor, the batch has a free slot, its
// tenant's bytes in the batch stay within the tenant's quota (unset when
// QuotaBytes <= 0), and the batch's bytes stay within the replica's own
// capacity. held and total must equal the admitted sums, and exactly the
// requests refused for memory start a quota wait.
func TestSelectBatch(t *testing.T) {
	ctxA, ctxB := &pilot.ModelContext{}, &pilot.ModelContext{}
	tenants := []TenantConfig{
		{Name: "capped", QuotaBytes: 100},
		{Name: "uncapped"},
		{Name: "negative", QuotaBytes: -1},
	}
	type req struct {
		tenant int
		bytes  int64
		ctx    *pilot.ModelContext
	}
	// Queued requests are numbered from 1 in arrival order; with no
	// deadlines and no starvation, selectBatch keeps that order.
	big := []req{{1, 400, ctxA}, {1, 400, ctxA}, {2, 300, ctxA}}
	cases := []struct {
		name      string
		queue     []req
		maxBatch  int
		capBytes  int64
		wantBatch []int64
		wantWait  []int64 // requests refused for memory
	}{
		{"quota refusal with device room",
			[]req{{0, 60, ctxA}, {0, 50, ctxA}, {1, 50, ctxA}, {0, 40, ctxA}}, 8, 1000,
			[]int64{1, 3, 4}, []int64{2}},
		{"device refusal on the larger replica", big, 8, 1000, []int64{1, 2}, []int64{3}},
		{"device refusal on the smaller replica", big, 8, 700, []int64{1, 3}, []int64{2}},
		{"batch exactly fills the replica", big, 8, 1100, []int64{1, 2, 3}, nil},
		{"uncapped tenants", []req{{1, 500, ctxA}, {2, 500, ctxA}, {2, 1, ctxA}}, 8, 1000,
			[]int64{1, 2}, []int64{3}},
		{"context mismatch is skipped", []req{{1, 10, ctxA}, {1, 10, ctxB}, {0, 10, ctxA}}, 8, 1000,
			[]int64{1, 3}, nil},
		{"maxBatch caps the batch", []req{{1, 10, ctxA}, {0, 10, ctxA}, {2, 10, ctxA}}, 2, 1000,
			[]int64{1, 2}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const now = 500
			var queued []*request
			for i, q := range tc.queue {
				queued = append(queued, &request{
					tenant: q.tenant, seq: i, id: int64(i + 1), arrivalNS: int64(i + 1),
					deadlineNS: math.MaxInt64, needBytes: q.bytes,
					ex: &pilot.Example{Ctx: q.ctx},
				})
			}
			held := []int64{7, 7, 7} // stale scratch from an earlier batch
			batch, rest, total := selectBatch(queued, now, math.MaxInt64, tc.maxBatch, tc.capBytes, tenants, held)

			var gotBatch, wantRest, gotRest, gotWait []int64
			wantHeld := make([]int64, len(tenants))
			var wantTotal int64
			for _, r := range batch {
				gotBatch = append(gotBatch, r.id)
				wantHeld[r.tenant] += r.needBytes
				wantTotal += r.needBytes
			}
			for _, r := range rest {
				gotRest = append(gotRest, r.id)
			}
			for id := int64(1); id <= int64(len(tc.queue)); id++ {
				if !slices.Contains(tc.wantBatch, id) {
					wantRest = append(wantRest, id)
				}
			}
			for _, r := range append(batch, rest...) {
				switch r.quotaSinceNS {
				case 0:
				case now:
					gotWait = append(gotWait, r.id)
				default:
					t.Errorf("request %d: quota wait starts at %d, want %d", r.id, r.quotaSinceNS, now)
				}
			}
			slices.Sort(gotWait)
			if !slices.Equal(gotBatch, tc.wantBatch) || !slices.Equal(gotRest, wantRest) {
				t.Errorf("batch %v rest %v, want %v and %v", gotBatch, gotRest, tc.wantBatch, wantRest)
			}
			if !slices.Equal(gotWait, tc.wantWait) {
				t.Errorf("quota waits started for %v, want %v", gotWait, tc.wantWait)
			}
			if !slices.Equal(held, wantHeld) || total != wantTotal {
				t.Errorf("held %v total %d, want %v and %d", held, total, wantHeld, wantTotal)
			}
			for tn, b := range held {
				if q := tenants[tn].QuotaBytes; q > 0 && b > q {
					t.Errorf("tenant %d holds %d bytes over its quota %d", tn, b, q)
				}
			}
			if total > tc.capBytes {
				t.Errorf("batch holds %d bytes on a %d-byte replica", total, tc.capBytes)
			}
		})
	}
}

// TestSelectBatchQuotaWait follows one request through a quota-blocked
// stretch: the wait starts at the first refusal, a second refusal does not
// restart it, and admission closes it into quotaNS.
func TestSelectBatchQuotaWait(t *testing.T) {
	ctx := &pilot.ModelContext{}
	tenants := []TenantConfig{{Name: "a", QuotaBytes: 100}}
	newReq := func(id, bytes int64) *request {
		return &request{id: id, seq: int(id), arrivalNS: id, deadlineNS: math.MaxInt64,
			needBytes: bytes, ex: &pilot.Example{Ctx: ctx}}
	}
	held := make([]int64, 1)
	blocker, waiter := newReq(1, 80), newReq(2, 40)
	for _, now := range []int64{100, 180} {
		batch, rest, _ := selectBatch([]*request{blocker, waiter}, now, math.MaxInt64, 8, 1000, tenants, held)
		if len(batch) != 1 || batch[0] != blocker || len(rest) != 1 || rest[0] != waiter {
			t.Fatalf("t=%d: batch %v rest %v, want the blocker alone", now, batch, rest)
		}
	}
	if waiter.quotaSinceNS != 100 || waiter.quotaNS != 0 {
		t.Fatalf("blocked stretch: since %d, accumulated %d; want 100 and 0", waiter.quotaSinceNS, waiter.quotaNS)
	}
	batch, _, total := selectBatch([]*request{waiter}, 250, math.MaxInt64, 8, 1000, tenants, held)
	if len(batch) != 1 || total != 40 || held[0] != 40 {
		t.Fatalf("batch %v total %d held %v, want the waiter's 40 bytes", batch, total, held)
	}
	if waiter.quotaSinceNS != 0 || waiter.quotaNS != 150 {
		t.Fatalf("closed stretch: since %d, accumulated %d; want 0 and 150", waiter.quotaSinceNS, waiter.quotaNS)
	}
	if blocker.quotaSinceNS != 0 || blocker.quotaNS != 0 {
		t.Fatalf("the admitted blocker shows a quota wait: since %d, accumulated %d", blocker.quotaSinceNS, blocker.quotaNS)
	}
}
