// Package bench defines the allocator/engine hot-path micro-benchmark
// fixtures shared by the root benchmark suite (bench_core_test.go) and
// cmd/jengabench -bench-core, so the committed BENCH_core.json
// trajectory measures exactly the code paths the CI benchmarks run.
//
// Each fixture returns a setup-complete Op whose Run executes one
// iteration of the measured hot path. Ops with a Recycle hook need it
// called (untimed) every RecycleEvery iterations to hold the system in
// steady state — without it, context growth would drift the
// measurement out of the regime the benchmark names.
package bench

import (
	"fmt"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// Op is one hot-path micro-benchmark.
type Op struct {
	// Run executes measured iteration i.
	Run func(i int) error
	// Recycle, when non-nil, restores steady state; Loop invokes it
	// outside the timed region every RecycleEvery iterations.
	Recycle      func(i int) error
	RecycleEvery int
}

// Loop drives one fixture under b, excluding steady-state recycles
// from timing and allocation accounting — the single harness behind
// both the root benchmark suite and jengabench -bench-core, so the
// committed trajectory and the CI benchmarks cannot measure different
// regimes.
func Loop(b *testing.B, op *Op) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op.Recycle != nil && op.RecycleEvery > 0 && i > 0 && i%op.RecycleEvery == 0 {
			b.StopTimer()
			if err := op.Recycle(i); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := op.Run(i); err != nil {
			b.Fatal(err)
		}
	}
}

// All enumerates the fixtures in report order.
var All = []struct {
	Name string
	Make func() (*Op, error)
}{
	{"alloc_small", AllocSmall},
	{"claim_release", ClaimRelease},
	{"claim_cold_prefix", ClaimColdPrefix},
	{"evict_spill", EvictSpill},
	{"lookup_warm", LookupWarm},
	{"commit_decode", CommitDecode},
	{"run_step_steady_state", RunStepSteadyState},
	{"serve_online_arrival", ServeOnlineArrival},
}

// AllocSmall measures one small-page allocation plus release at ~99.9%
// pool utilization with a quarter-million-page pool — the §5.4 step-4
// any-free pop every admission-time reservation ends in once the
// replica is loaded. The fixture interleaves two sequences page by
// page and releases one, so the surviving free pages are scattered
// across half-used large pages; a third sequence then re-occupies all
// but ~200 of them. The "pad" group stores only image tokens, so the
// all-text workload leaves it empty and the LCM geometry gives "kv"
// two small pages per large page (free pages can strand inside
// half-used large pages instead of being reclaimed).
func AllocSmall() (*Op, error) {
	spec := &model.Spec{
		Name: "bench-hiutil", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256, Scope: model.ScopeText},
			{Name: "pad", Kind: model.FullAttention, Layers: 1, BytesPerToken: 512, Scope: model.ScopeImage},
		},
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: false,
	})
	if err != nil {
		return nil, err
	}
	const pages = 131072 // per interleaved sequence: half the kv pool
	a := &core.Sequence{ID: 1}
	b := &core.Sequence{ID: 2}
	for i := 0; i < pages*16; i++ {
		a.Tokens = append(a.Tokens, core.Token{ID: int32(i%50_000 + 1)})
		b.Tokens = append(b.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	for p := 1; p <= pages; p++ {
		if err := mgr.Reserve(a, p*16, 1); err != nil {
			return nil, err
		}
		if err := mgr.Reserve(b, p*16, 1); err != nil {
			return nil, err
		}
	}
	mgr.Release(b, false)
	c := &core.Sequence{ID: 3}
	const cPages = pages - 200
	for i := 0; i < cPages*16; i++ {
		c.Tokens = append(c.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(c, cPages*16, 1); err != nil {
		return nil, err
	}
	seq := &core.Sequence{ID: 1000}
	for i := 0; i < 16; i++ {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i + 1)})
	}
	return &Op{Run: func(i int) error {
		seq.ID = core.RequestID(1000 + i)
		if err := mgr.Reserve(seq, 16, core.Tick(i)); err != nil {
			return err
		}
		mgr.Release(seq, false)
		return nil
	}}, nil
}

// ClaimRelease measures a one-block prefix-cache claim and
// cache-preserving release against a fully cached large page of 4096
// small pages: every release flips the large page back to evictable,
// which re-keys it for the large-page LRU (§5.4 step 3). The
// megabyte-scale image-embedding group (the paper's VLM heterogeneity)
// drives the LCM geometry to 4096 small KV pages per large page.
func ClaimRelease() (*Op, error) {
	spec := &model.Spec{
		Name: "bench-claim", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 64, Scope: model.ScopeText},
			{Name: "embed", Kind: model.FullAttention, Layers: 1, BytesPerToken: 262144, Scope: model.ScopeImage},
		},
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 8 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	// Fill one large page (4096 kv pages = 65536 tokens) as cache.
	const tokens = 65536
	base := &core.Sequence{ID: 1, PromptLen: tokens}
	for i := 0; i < tokens; i++ {
		base.Tokens = append(base.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(base, tokens, 1); err != nil {
		return nil, err
	}
	mgr.Commit(base, tokens, 1)
	mgr.Release(base, true)
	// Pin one page of a second large page so the probe's uncached tail
	// block allocates from an existing half-used large page instead of
	// carving and reclaiming a fresh one every iteration.
	pin := &core.Sequence{ID: 2}
	pin.Tokens = append(pin.Tokens, core.Token{ID: 7})
	if err := mgr.Reserve(pin, 1, 1); err != nil {
		return nil, err
	}
	probe := &core.Sequence{ID: 3, PromptLen: 17}
	probe.Tokens = append(probe.Tokens, base.Tokens[:17]...)
	return &Op{Run: func(i int) error {
		probe.ID = core.RequestID(100 + i)
		if err := mgr.Reserve(probe, 17, core.Tick(i)); err != nil {
			return err
		}
		mgr.Release(probe, true)
		return nil
	}}, nil
}

// ClaimColdPrefix measures the cold admission of a shared-prefix
// prompt on the Gemma-2-2B model (full and sliding-window groups,
// both over every token): a fresh request ID looks up a 1,072-token
// prompt whose first 1,024 tokens are cached, then reserves it —
// claiming the 64 cached blocks per group and allocating the uncached
// tail — and releases it. The release runs before any commit, so the
// tail frees and the prefix returns to the cache: every iteration
// sees the same state. This is the per-request prefix-cache cost of
// the streamed shared-prefix workloads; lookup_warm re-probes one ID
// and claim_release claims only one block.
func ClaimColdPrefix() (*Op, error) {
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		return nil, err
	}
	const prefix, prompt = 1024, 1072
	var mgr *core.Jenga
	// warm builds a manager holding only the cached prefix. Every
	// release re-queues the prefix's large pages on the large-page
	// eviction heap, which is never compacted and only eviction
	// drains, so Recycle rebuilds it before the heap grows out of the
	// regime measured.
	warm := func() error {
		m, err := core.New(core.Config{
			Spec: spec, CapacityBytes: 1 << 30,
			EnablePrefixCache: true, RequestAware: true,
		})
		if err != nil {
			return err
		}
		base := &core.Sequence{ID: 1, PromptLen: prefix}
		for i := 0; i < prefix; i++ {
			base.Tokens = append(base.Tokens, core.Token{ID: int32(i + 1)})
		}
		if err := m.Reserve(base, prefix, 1); err != nil {
			return err
		}
		m.Commit(base, prefix, 1)
		m.Release(base, true)
		mgr = m
		return nil
	}
	if err := warm(); err != nil {
		return nil, err
	}
	probe := &core.Sequence{PromptLen: prompt}
	for i := 0; i < prompt; i++ {
		id := int32(i + 1)
		if i >= prefix {
			id = int32(50_000 + i)
		}
		probe.Tokens = append(probe.Tokens, core.Token{ID: id})
	}
	return &Op{
		Run: func(i int) error {
			probe.ID = core.RequestID(100 + i)
			if p := mgr.Lookup(probe); p != prefix {
				return fmt.Errorf("bench: cold lookup hit %d tokens, want %d", p, prefix)
			}
			if err := mgr.Reserve(probe, prompt, core.Tick(i+2)); err != nil {
				return err
			}
			mgr.Release(probe, true)
			return nil
		},
		RecycleEvery: 1024,
		Recycle:      func(int) error { return warm() },
	}, nil
}

// EvictSpill measures the §5.4 eviction path under memory pressure
// with a host tier: the KV budget is full of cached large pages and the
// tier is full of spilled ones, so every iteration's fresh request —
// one large page of unshared tokens — evicts the LRU large page (step
// 3), spills it to the tier (which drops its own oldest page to make
// room), then commits and releases its blocks as the newest cache. The
// "pad" group stores only image tokens, so the all-text workload
// leaves it empty while its 4× larger pages set the LCM geometry to
// four "kv" blocks per large page.
func EvictSpill() (*Op, error) {
	spec := &model.Spec{
		Name: "bench-evict", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "pad", Kind: model.FullAttention, Layers: 2, BytesPerToken: 512, Scope: model.ScopeImage},
		},
	}
	const largePages, hostPages, tokens = 64, 16, 64 // 64 tokens = four 16-token blocks
	const largeBytes = 16 * 2 * 512
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: largePages * largeBytes, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
		HostTierBytes: hostPages * largeBytes,
	})
	if err != nil {
		return nil, err
	}
	seq := &core.Sequence{PromptLen: tokens, Tokens: make([]core.Token, tokens)}
	run := func(i int) error {
		seq.ID = core.RequestID(i + 1)
		for k := range seq.Tokens {
			seq.Tokens[k].ID = int32((i*tokens+k)%(1<<30) + 1)
		}
		if err := mgr.Reserve(seq, tokens, core.Tick(i+1)); err != nil {
			return err
		}
		mgr.Commit(seq, tokens, core.Tick(i+1))
		mgr.Release(seq, true)
		return nil
	}
	// Fill the KV budget with cache and the tier with spills, then
	// check one iteration is the regime named above.
	const warm = 4 * (largePages + hostPages)
	for i := 0; i < warm; i++ {
		if err := run(i); err != nil {
			return nil, err
		}
	}
	st, ts := mgr.Stats(), mgr.TierStats()
	if err := run(warm); err != nil {
		return nil, err
	}
	st2, ts2 := mgr.Stats(), mgr.TierStats()
	if st2.LargeEvictions != st.LargeEvictions+1 || ts2.SwapOuts != ts.SwapOuts+1 || ts2.HostEvictions != ts.HostEvictions+1 {
		return nil, fmt.Errorf("bench: evict_spill iteration is not one large eviction, spill and tier eviction")
	}
	return &Op{Run: func(i int) error { return run(warm + 1 + i) }}, nil
}

// LookupWarm measures the admission-path prefix lookup over a long
// fully cached prompt.
func LookupWarm() (*Op, error) {
	mgr, err := core.New(core.Config{
		Spec: textSpec("bench-lookup"), CapacityBytes: 256 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	const tokens = 8192
	seq := &core.Sequence{ID: 1, PromptLen: tokens}
	for i := 0; i < tokens; i++ {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(seq, tokens, 1); err != nil {
		return nil, err
	}
	mgr.Commit(seq, tokens, 1)
	mgr.Release(seq, true)
	probe := &core.Sequence{ID: 2, PromptLen: tokens, Tokens: seq.Tokens}
	return &Op{Run: func(int) error {
		if mgr.Lookup(probe) == 0 {
			return fmt.Errorf("bench: expected a warm hit")
		}
		return nil
	}}, nil
}

// CommitDecode measures the per-token decode commit: append one token,
// reserve it, commit it — the core-manager share of every decode step.
// Recycle releases and restarts the sequence before it outgrows the
// pool.
func CommitDecode() (*Op, error) {
	mgr, err := core.New(core.Config{
		Spec: textSpec("bench-commit"), CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	start := func(id core.RequestID, toks []core.Token) (*core.Sequence, error) {
		seq := &core.Sequence{ID: id, PromptLen: 64, Tokens: toks[:64]}
		if err := mgr.Reserve(seq, 64, 0); err != nil {
			return nil, err
		}
		mgr.Commit(seq, 64, 0)
		return seq, nil
	}
	toks := make([]core.Token, 64)
	for i := range toks {
		toks[i] = core.Token{ID: int32(i + 1)}
	}
	seq, err := start(1, toks)
	if err != nil {
		return nil, err
	}
	op := &Op{
		RecycleEvery: 1 << 20,
		Recycle: func(i int) error {
			mgr.Release(seq, false)
			s, err := start(core.RequestID(i), seq.Tokens)
			seq = s
			return err
		},
	}
	op.Run = func(i int) error {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50_000 + 1)})
		n := len(seq.Tokens)
		if err := mgr.Reserve(seq, n, core.Tick(i)); err != nil {
			return err
		}
		mgr.Commit(seq, n, core.Tick(i))
		return nil
	}
	return op, nil
}

// RunStepSteadyState measures one engine scheduler step with 32
// decode-phase sequences at 2k context — the steady-state decode loop
// every serving scenario spends most of its simulated time in. Recycle
// cancels the fleet (cache-preserving release) and launches a fresh
// wave over the same prompts, bounding context growth so the
// measurement never drifts into preemption thrash.
func RunStepSteadyState() (*Op, error) {
	spec := textSpec("bench-step")
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Spec: spec, Manager: mgr,
		MaxBatchTokens: 4096, MaxRunning: 64, MaxPrefills: 8,
		MaxSteps: 1 << 40,
	})
	if err != nil {
		return nil, err
	}
	const seqs, ctx = 32, 2048
	nextID := int64(1)
	launch := func() error {
		for i := 0; i < seqs; i++ {
			req := workload.Request{ID: nextID, OutputLen: 1 << 20}
			nextID++
			for j := 0; j < ctx; j++ {
				req.Prompt = append(req.Prompt, core.Token{ID: int32((i*131+j)%50_000 + 1)})
			}
			if err := eng.Submit(&req); err != nil {
				return err
			}
		}
		// Warm until every sequence is decoding.
		for i := 0; i < ctx/128+seqs+64; i++ {
			if err := eng.StepOnce(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := launch(); err != nil {
		return nil, err
	}
	return &Op{
		Run:          func(int) error { return eng.StepOnce() },
		RecycleEvery: 2048,
		Recycle: func(int) error {
			for id := nextID - seqs; id < nextID; id++ {
				eng.Cancel(id)
			}
			return launch()
		},
	}, nil
}

// ServeOnlineArrival measures the router's work at one ServeOnline
// barrier — snapshot every replica, route against the live loads,
// submit to the chosen engine — the per-arrival cost ServeStream
// amortizes into epochs. The serve loop's barrier channel round trip
// and the replicas' advance to the arrival are not included. Recycle
// resets the fleet so the pending-queue insert never drifts out of the
// near-empty regime routing runs in.
func ServeOnlineArrival() (*Op, error) {
	spec := textSpec("bench-arrival")
	const replicas = 8
	engines := make([]*engine.Engine, replicas)
	for i := range engines {
		mgr, err := core.New(core.Config{
			Spec: spec, CapacityBytes: 64 << 20, TokensPerPage: 16,
			EnablePrefixCache: true, RequestAware: true,
		})
		if err != nil {
			return nil, err
		}
		eng, err := engine.New(engine.Config{Spec: spec, Manager: mgr})
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	router, err := cluster.NewRouter(cluster.LeastLoaded, replicas, 0, 0)
	if err != nil {
		return nil, err
	}
	loads := make([]cluster.Load, replicas)
	for i := range loads {
		loads[i].Replica = i
	}
	prompt := make([]core.Token, 256)
	for i := range prompt {
		prompt[i] = core.Token{ID: int32(i + 1)}
	}
	base := 0
	op := &Op{
		RecycleEvery: 512,
		Recycle: func(i int) error {
			for _, e := range engines {
				e.Reset()
			}
			for j := range loads {
				loads[j] = cluster.Load{Replica: j}
			}
			base = i
			return nil
		},
	}
	op.Run = func(i int) error {
		req := workload.Request{
			ID:        int64(i + 1),
			Prompt:    prompt,
			OutputLen: 32,
			Arrival:   time.Duration(i-base) * 50 * time.Microsecond,
		}
		for j, e := range engines {
			snap := e.SnapshotTotals()
			loads[j].Live = true
			loads[j].Usage = snap.Usage
			loads[j].QueueDepth = snap.Pending + snap.Waiting
			loads[j].OutstandingTokens = snap.OutstandingTokens
		}
		rep := router.Route(&req, loads)
		work := int64(len(req.Prompt) + req.OutputLen)
		loads[rep].Requests++
		loads[rep].RoutedTokens += work
		return engines[rep].Submit(&req)
	}
	return op, nil
}

// textSpec is the shared one-group full-attention model.
func textSpec(name string) *model.Spec {
	return &model.Spec{
		Name: name, Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeText},
		},
	}
}

// SimResult anchors the micro numbers to an end-to-end run.
type SimResult struct {
	ReqPerSec    float64
	TokensPerSec float64
	Wall         time.Duration
}

// SimThroughput runs a compact single-replica serving scenario (96
// shared-prefix requests, Gemma-2 2B geometry, default Jenga manager)
// and returns its simulated throughput plus the wall time the
// simulation itself took — the absolute end-to-end anchor committed
// next to the per-op numbers.
func SimThroughput() (SimResult, error) {
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		return SimResult{}, err
	}
	mgr, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 2 << 30,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return SimResult{}, err
	}
	eng, err := engine.New(engine.Config{Spec: spec, Manager: mgr})
	if err != nil {
		return SimResult{}, err
	}
	gen := workload.NewGen(42)
	reqs := gen.PrefixGroups(8, 12, 1024, 128)
	gen.PoissonArrivals(reqs, 200)
	start := time.Now()
	res, err := eng.Run(reqs)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		ReqPerSec:    res.ReqPerSec,
		TokensPerSec: res.TokensPerSec,
		Wall:         time.Since(start),
	}, nil
}
