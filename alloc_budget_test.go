package jenga_test

import (
	"testing"

	"jenga"
	"jenga/internal/bench"
)

// TestDecodeStepZeroAlloc is the allocation budget of the hot path: in
// steady-state decode, one engine step performs zero heap allocations —
// no per-step running-list copy, no per-decode projected-context map,
// no Usage map on the sampling path, no free-pool map churn in the
// allocator. The budget is asserted over a measurement window placed
// mid-plateau of the engine's amortized slices (token buffer is
// pre-sized at Submit; page tables and timelines are within capacity),
// so any regression that allocates per step or per token fails loudly.
//
// Skipped under -short: the race-detector CI pass (-race -short) adds
// instrumentation allocations that are not the engine's.
func TestDecodeStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	spec := &jenga.Spec{
		Name: "zeroalloc", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []jenga.KVGroup{
			{Name: "kv", Kind: jenga.FullAttention, Layers: 2, BytesPerToken: 128, Scope: jenga.ScopeText},
		},
	}
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 64 << 20, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: spec, Manager: mgr, MaxBatchTokens: 2048, MaxSteps: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := jenga.Request{ID: 1, OutputLen: 4096}
	for j := 0; j < 64; j++ {
		req.Prompt = append(req.Prompt, jenga.Token{ID: int32(j + 1)})
	}
	if err := eng.Submit(&req); err != nil {
		t.Fatal(err)
	}
	// Warm deep into decode so every amortized slice (page table,
	// decode timeline) sits mid-plateau for the measurement window.
	for i := 0; i < 1300; i++ {
		if err := eng.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(128, func() {
		if err := eng.StepOnce(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode step allocates %.2f objects per step, want 0", allocs)
	}
}

// TestWarmLookupZeroAlloc pins the warm-lookup budget on the exact
// fixture the committed benchmark trajectory measures: after the first
// lookup hashes the prompt, repeat lookups over the same live sequence
// extend the per-scope hash memo incrementally and allocate nothing
// (the memo lives on the manager, each view in its group's scratch,
// and nothing returned from Lookup outlives the call).
func TestWarmLookupZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.LookupWarm()
	if err != nil {
		t.Fatal(err)
	}
	// First lookup builds the scratch cold; everything after is warm.
	if err := op.Run(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(128, func() {
		if err := op.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm prefix lookup allocates %.2f objects per call, want 0", allocs)
	}
}

// TestClaimColdPrefixAllocBudget bounds the cold admission of a
// shared-prefix prompt (fresh-ID lookup, claim of 64 cached blocks per
// group, release) on the claim_cold_prefix fixture. Prefix hashing
// itself allocates nothing — the hash memo reuses its capacity across
// requests — and the evictor's heap pushes as the claimed pages return
// to the cache store unboxed entries within capacity, so the budget is
// the measured constant of the per-request state and page tables.
func TestClaimColdPrefixAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.ClaimColdPrefix()
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocs := testing.AllocsPerRun(64, func() {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	const budget = 10
	if allocs > budget {
		t.Fatalf("cold prefix admission allocates %.2f objects per request, budget %d", allocs, budget)
	}
}

// TestEvictSpillAllocBudget bounds one fresh request under memory
// pressure on the evict_spill fixture: a large-page eviction, its spill
// to a full host tier (which drops its oldest page), then the commit
// and cache-preserving release. The eviction heaps push unboxed entries
// and compact in place, the tier recycles its dropped pages and the
// spill reuses scratch, so none of that path allocates: the budget is
// the measured constant of the per-request state, the page table and
// the request-aware free lists.
func TestEvictSpillAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.EvictSpill()
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocs := testing.AllocsPerRun(64, func() {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	const budget = 9
	if allocs > budget {
		t.Fatalf("evict-and-spill admission allocates %.2f objects per request, budget %d", allocs, budget)
	}
}

// TestServeArrivalAllocBudget bounds the per-arrival cost of the
// online router loop (snapshot every replica, route, submit) on the
// serve_online_arrival fixture. Unlike the decode and lookup paths
// this one legitimately allocates — Submit creates the request's run
// state — so the budget is a measured constant, not zero: the point is
// catching a regression that starts allocating per replica or per
// prompt token on the routing path.
func TestServeArrivalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	op, err := bench.ServeOnlineArrival()
	if err != nil {
		t.Fatal(err)
	}
	// Warm within one recycle window (RecycleEvery is 512): the
	// measurement below stays inside the near-empty routing regime the
	// fixture is built to hold.
	iter := 0
	for ; iter < 100; iter++ {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(64, func() {
		if err := op.Run(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	const budget = 16
	if allocs > budget {
		t.Fatalf("online arrival allocates %.2f objects per request, budget %d", allocs, budget)
	}
}
