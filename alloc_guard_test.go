package setagreement_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	sa "setagreement"
)

// Allocation ceilings for a solo (uncontended) proposal on a repeated
// object, enforced by the guard tests below so hot-path regressions fail CI
// rather than silently landing. Measured: 6 allocs for a blocking Propose on
// both backends (the lock-free backend pays one version array per Update,
// the mutex backend one copy per Scan; both pay one boxed tuple per
// Propose; the history append per decision is amortized into the process's
// own buffer, which grows only now and then — it was a 7th allocation
// while every decision copied the whole history), 11 for ProposeAsync
// (adding the future, the proposal wrapper and engine bookkeeping). The
// ceilings leave a little slack over those measurements; raising them
// requires justifying the regression, not just re-measuring.
const (
	soloProposeAllocCeiling      = 9
	soloProposeAsyncAllocCeiling = 15

	// Bytes a solo Propose may allocate at instance ~20k beyond what it
	// allocates at instance ~100. Measured: 485 against 502 B/op, the gap
	// being where the history buffer's occasional growth lands in each
	// window (at most one ~200 KB growth, ~50 B/op, in the deep window); a
	// copied history would add 8 bytes per earlier instance, 160 KB here.
	depthFlatSlackBytes = 128

	// Per-proposal ceiling for a full SubmitAll round (submit + decide +
	// resolve) over 64 solo arena handles. Measured: 7.25 — the slab
	// amortization leaves roughly the blocking path's own allocations plus
	// a fraction of the per-batch slabs, against 12 for the looped
	// ProposeAsync equivalent.
	batchRoundAllocCeiling = 9
)

// soloProposeAllocs measures steady-state allocations of one solo Propose
// (or ProposeAsync resolved through its future) on a fresh repeated object.
func soloProposeAllocs(t *testing.T, backend sa.MemoryBackend, async bool) float64 {
	t.Helper()
	ctx := context.Background()
	r, err := sa.NewRepeated[int](4, 1, sa.WithMemoryBackend(backend))
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	propose := func() {
		var err error
		if async {
			_, err = h.ProposeAsync(ctx, 7).Value()
		} else {
			_, err = h.Propose(ctx, 7)
		}
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	// Warm the handle past one-time costs (engine creation on the async
	// path, lazy wait-plan allocation) so the run measures the steady state.
	for i := 0; i < 5; i++ {
		propose()
	}
	return testing.AllocsPerRun(100, propose)
}

// TestProposeSoloAllocs guards the blocking hot path: a solo Propose must
// stay within the allocation ceiling on every backend.
func TestProposeSoloAllocs(t *testing.T) {
	for _, be := range []sa.MemoryBackend{sa.BackendLockFree, sa.BackendLocked} {
		t.Run(fmt.Sprint(be), func(t *testing.T) {
			if n := soloProposeAllocs(t, be, false); n > soloProposeAllocCeiling {
				t.Errorf("solo Propose allocates %.0f/op on %v, ceiling %d",
					n, be, soloProposeAllocCeiling)
			}
		})
	}
}

// TestProposeAsyncSoloAllocs guards the engine-driven hot path likewise.
func TestProposeAsyncSoloAllocs(t *testing.T) {
	for _, be := range []sa.MemoryBackend{sa.BackendLockFree, sa.BackendLocked} {
		t.Run(fmt.Sprint(be), func(t *testing.T) {
			if n := soloProposeAllocs(t, be, true); n > soloProposeAsyncAllocCeiling {
				t.Errorf("solo ProposeAsync allocates %.0f/op on %v, ceiling %d",
					n, be, soloProposeAsyncAllocCeiling)
			}
		})
	}
}

// TestSubmitBatchAllocs guards the batch hot path: one SubmitAll round
// over 64 solo arena handles — submission through decision through future
// resolution — must stay under the per-proposal ceiling. The looped
// ProposeAsync path allocates ~12 per proposal; the batch path's slabs
// must keep it well below that.
func TestSubmitBatchAllocs(t *testing.T) {
	ctx := context.Background()
	const size = 64
	ar, err := sa.NewArena[int](4, 1)
	if err != nil {
		t.Fatalf("NewArena: %v", err)
	}
	handles := make([]*sa.Handle[int], size)
	for i := range handles {
		h, err := ar.Object(fmt.Sprintf("alloc-%d", i)).Proc(0)
		if err != nil {
			t.Fatalf("Proc: %v", err)
		}
		handles[i] = h
	}
	vals := make([]int, size)
	round := func() {
		b, err := sa.SubmitAll(ctx, handles, vals)
		if err != nil {
			t.Fatalf("SubmitAll: %v", err)
		}
		for i := 0; i < size; i++ {
			if _, err := b.Future(i).Value(); err != nil {
				t.Fatalf("proposal %d: %v", i, err)
			}
		}
	}
	// Warm past one-time costs (engine creation, wait plans).
	for i := 0; i < 5; i++ {
		round()
	}
	if n := testing.AllocsPerRun(50, round) / size; n > batchRoundAllocCeiling {
		t.Errorf("batch round allocates %.2f/proposal, ceiling %d", n, batchRoundAllocCeiling)
	}
}

// soloProposeBytes drives a fresh repeated object solo to each depth in
// turn and returns the mean bytes one Propose allocates over a window of
// instances starting there. Bytes come from MemStats.TotalAlloc: a cost
// that grows with the object's depth shows in bytes long before it shows
// in the allocation count.
func soloProposeBytes(t *testing.T, window int, depths ...int) []float64 {
	t.Helper()
	ctx := context.Background()
	r, err := sa.NewRepeated[int](4, 1)
	if err != nil {
		t.Fatalf("NewRepeated: %v", err)
	}
	h, err := r.Proc(0)
	if err != nil {
		t.Fatalf("Proc: %v", err)
	}
	decided := 0
	propose := func() {
		if _, err := h.Propose(ctx, decided); err != nil {
			t.Fatalf("propose: %v", err)
		}
		decided++
	}
	var out []float64
	var before, after runtime.MemStats
	for _, d := range depths {
		for decided < d {
			propose()
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < window; i++ {
			propose()
		}
		runtime.ReadMemStats(&after)
		out = append(out, float64(after.TotalAlloc-before.TotalAlloc)/float64(window))
	}
	return out
}

// TestProposeSoloBytesDepthFlat guards repeated agreement against cost that
// grows with the number of instances an object has decided: a solo Propose
// at instance ~20k must allocate no more bytes than one at instance ~100,
// up to a small constant.
func TestProposeSoloBytesDepthFlat(t *testing.T) {
	const window = 4096
	b := soloProposeBytes(t, window, 100, 20_000)
	shallow, deep := b[0], b[1]
	t.Logf("bytes/op: %.0f at instance 100, %.0f at instance 20000", shallow, deep)
	if deep > shallow+depthFlatSlackBytes {
		t.Errorf("solo Propose allocates %.0f B/op at instance 20000 against %.0f at instance 100; slack %d",
			deep, shallow, depthFlatSlackBytes)
	}
}
