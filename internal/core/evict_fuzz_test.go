package core

import (
	"math"
	"math/rand"
	"testing"

	"jenga/internal/model"
)

// compactSpec mixes full attention (LRU + prefix-length priority),
// sliding window (expired pages) and Mamba (claim re-keys a cached
// checkpoint) — every way a cached page's eviction key is set.
func compactSpec() *model.Spec {
	return &model.Spec{
		Name: "compact", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128},
			{Name: "window", Kind: model.SlidingWindow, Layers: 1, BytesPerToken: 128, Window: 4},
			{Name: "mamba", Kind: model.Mamba, Layers: 1, StateBytes: 1024, CheckpointEvery: 4},
		},
	}
}

// newCompactMgr builds a manager with a tight KV budget (24 large
// pages) and a host tier of 6 pages, so admissions evict and spill.
func newCompactMgr(t *testing.T) *Jenga {
	t.Helper()
	m, err := New(Config{
		Spec: compactSpec(), CapacityBytes: 24 << 10, TokensPerPage: 2,
		EnablePrefixCache: true, RequestAware: true, Backed: true,
		HostTierBytes: 6 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// neverCompact puts the compacting heaps' thresholds out of reach, so
// the manager keeps every stale entry: the reference side of the
// compaction differential.
func neverCompact(m *Jenga) {
	for _, g := range m.groups {
		g.evict.base = math.MaxInt / 4
	}
	if m.host != nil {
		m.host.evict.base = math.MaxInt / 4
	}
}

// compactAll drops every stale entry of the compacting heaps,
// returning how many it dropped.
func compactAll(m *Jenga) int {
	dropped := 0
	for _, g := range m.groups {
		n := g.evict.len()
		g.compactEvict()
		dropped += n - g.evict.len()
	}
	if h := m.host; h != nil {
		n := h.evict.len()
		h.compactEvict()
		dropped += n - h.evict.len()
	}
	return dropped
}

// sameManagers fails unless a and b hold identical counters, page
// states and host-tier contents.
func sameManagers(t *testing.T, op int, a, b *Jenga) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("op %d: stats %+v vs %+v", op, a.Stats(), b.Stats())
	}
	if a.TierStats() != b.TierStats() {
		t.Fatalf("op %d: tier stats %+v vs %+v", op, a.TierStats(), b.TierStats())
	}
	for gi, g := range a.groups {
		for p := range g.pages {
			if g.pages[p] != b.groups[gi].pages[p] {
				t.Fatalf("op %d: group %s page %d: %+v vs %+v", op, g.spec.Name, p, g.pages[p], b.groups[gi].pages[p])
			}
		}
	}
	for L := range a.largeOwner {
		if a.largeOwner[L] != b.largeOwner[L] {
			t.Fatalf("op %d: large page %d owner %d vs %d", op, L, a.largeOwner[L], b.largeOwner[L])
		}
	}
	if len(a.host.pages) != len(b.host.pages) {
		t.Fatalf("op %d: %d host pages vs %d", op, len(a.host.pages), len(b.host.pages))
	}
	for seq, pa := range a.host.pages {
		pb, ok := b.host.pages[seq]
		if !ok || pa.touch != pb.touch || pa.group != pb.group || len(pa.blocks) != len(pb.blocks) {
			t.Fatalf("op %d: host page %d differs", op, seq)
		}
		for i := range pa.blocks {
			x, y := pa.blocks[i], pb.blocks[i]
			if x.hash != y.hash || x.priority != y.priority || x.filled != y.filled || string(x.data) != string(y.data) {
				t.Fatalf("op %d: host page %d block %d differs", op, seq, i)
			}
		}
	}
}

// runEvictCompaction drives one byte-decoded op stream on two managers
// — one compacting both eviction heaps after every op, one never
// compacting — and asserts after every op that they stay identical and
// pass the audit. It returns the compacting side's manager and the
// number of stale entries compaction dropped.
func runEvictCompaction(t *testing.T, data []byte) (*Jenga, int) {
	a, b := newCompactMgr(t), newCompactMgr(t)
	neverCompact(b)
	type pair struct{ a, b *Sequence }
	var live []pair
	nextID := RequestID(1)
	now := Tick(1)
	dropped := 0
	// reserve reserves and commits upTo tokens on both sides, which
	// must agree on the outcome.
	reserve := func(op int, p pair, upTo int) bool {
		ea, eb := a.Reserve(p.a, upTo, now), b.Reserve(p.b, upTo, now)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("op %d: reserve = %v vs %v", op, ea, eb)
		}
		if ea != nil {
			return false
		}
		a.Commit(p.a, upTo, now)
		b.Commit(p.b, upTo, now)
		return true
	}
	drop := func(j int) { live = append(live[:j], live[j+1:]...) }
	const maxLive = 16
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := int(data[i]%7), int(data[i+1])
		now++
		switch op {
		case 0: // admit: an 8-token prefix shared by its family, a private tail
			if len(live) >= maxLive {
				break
			}
			family, tail := arg%3, 1+(arg/3)%6
			s := &Sequence{ID: nextID}
			for k := 0; k < 8; k++ {
				s.Tokens = append(s.Tokens, Token{ID: int32(family*100 + k + 1)})
			}
			for k := 0; k < tail; k++ {
				s.Tokens = append(s.Tokens, Token{ID: int32(1000 + int(nextID)*16 + k)})
			}
			s.PromptLen = len(s.Tokens)
			nextID++
			p := pair{a: s, b: &Sequence{ID: s.ID, PromptLen: s.PromptLen, Tokens: append([]Token(nil), s.Tokens...)}}
			if la, lb := a.Lookup(p.a), b.Lookup(p.b); la != lb {
				t.Fatalf("op %d: lookup %d vs %d", i, la, lb)
			}
			if !reserve(i, p, len(s.Tokens)) {
				a.Release(p.a, false)
				b.Release(p.b, false)
				break
			}
			live = append(live, p)
		case 1: // decode one token
			if len(live) == 0 {
				break
			}
			p := live[arg%len(live)]
			n := len(p.a.Tokens)
			tok := Token{ID: int32(5000 + int(p.a.ID)*31 + n)}
			p.a.Tokens = append(p.a.Tokens, tok)
			p.b.Tokens = append(p.b.Tokens, tok)
			if !reserve(i, p, n+1) {
				p.a.Tokens, p.b.Tokens = p.a.Tokens[:n], p.b.Tokens[:n]
			}
		case 2, 3: // finish (cache-preserving) or cancel
			if len(live) == 0 {
				break
			}
			j := arg % len(live)
			a.Release(live[j].a, op == 2)
			b.Release(live[j].b, op == 2)
			drop(j)
		case 4: // swap out
			if len(live) == 0 {
				break
			}
			j := arg % len(live)
			pa, ba := a.SwapOut(live[j].a)
			pb, bb := b.SwapOut(live[j].b)
			if pa != pb || ba != bb {
				t.Fatalf("op %d: swap-out %d/%d vs %d/%d", i, pa, ba, pb, bb)
			}
			drop(j)
		case 5: // fork
			if len(live) == 0 || len(live) >= maxLive {
				break
			}
			par := live[arg%len(live)]
			c := pair{
				a: &Sequence{ID: nextID, PromptLen: par.a.PromptLen, Tokens: append([]Token(nil), par.a.Tokens...)},
				b: &Sequence{ID: nextID, PromptLen: par.b.PromptLen, Tokens: append([]Token(nil), par.b.Tokens...)},
			}
			nextID++
			ea, eb := a.Fork(par.a, c.a, now), b.Fork(par.b, c.b, now)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("op %d: fork = %v vs %v", i, ea, eb)
			}
			if ea != nil {
				a.Release(c.a, false)
				b.Release(c.b, false)
				break
			}
			live = append(live, c)
		case 6: // crash: both restart cold
			if err := a.CrashReset(); err != nil {
				t.Fatal(err)
			}
			if err := b.CrashReset(); err != nil {
				t.Fatal(err)
			}
			neverCompact(b)
			live = live[:0]
		}
		dropped += compactAll(a)
		sameManagers(t, i, a, b)
		audit(t, a)
		audit(t, b)
	}
	return a, dropped
}

// FuzzEvictCompaction checks that dropping stale eviction-heap entries
// is exact: a manager that compacts g.evict and the host tier's heap
// after every op evicts, spills and restores exactly like one that
// never compacts.
func FuzzEvictCompaction(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 2, 0, 0, 1, 0, 4, 2, 1, 4, 0, 0, 2, 5, 0, 0, 7, 1, 0, 2, 0, 6, 0, 0, 0})
	f.Add([]byte{0, 5, 0, 8, 0, 11, 1, 0, 1, 1, 2, 0, 2, 0, 0, 5, 0, 14, 3, 0, 4, 0, 0, 2, 0, 5})
	f.Add([]byte{0, 1, 5, 0, 5, 1, 2, 0, 2, 1, 0, 1, 0, 4, 0, 7, 4, 1, 4, 0, 0, 1, 2, 2, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		runEvictCompaction(t, data)
	})
}

// TestEvictCompactionExercised runs a long random op stream through the
// differential and checks it is not vacuous: evictions, spills and
// restores happen, and compaction drops stale entries.
func TestEvictCompactionExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1200)
	for i := range data {
		data[i] = byte(rng.Intn(256))
		if i%2 == 0 && rng.Intn(3) == 0 {
			data[i] = 0 // admissions keep the live set (and the pressure) up
		}
		if i%2 == 0 && data[i]%7 == 6 {
			data[i] = 2 // no crash: it would reset the counters checked below
		}
	}
	m, dropped := runEvictCompaction(t, data)
	st, ts := m.Stats(), m.TierStats()
	if st.LargeEvictions == 0 || ts.SwapOuts == 0 || ts.SwapIns == 0 || dropped == 0 {
		t.Fatalf("differential not exercised: %d large evictions, %d spills, %d restores, %d entries compacted",
			st.LargeEvictions, ts.SwapOuts, ts.SwapIns, dropped)
	}
}

// TestEvictHeapBounded: on a replica that never evicts, every release
// of a claimed prefix re-queues its pages. The evictor's heap must stay
// within twice its live entries plus the slack instead of growing by
// one entry per released cached page.
func TestEvictHeapBounded(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	base := textSeq(1, 32)
	base.PromptLen = 32
	if err := m.Reserve(base, 32, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(base, 32, 1)
	m.Release(base, true)
	for i := 0; i < 3000; i++ {
		probe := &Sequence{ID: RequestID(100 + i), PromptLen: 33, Tokens: append(append([]Token(nil), base.Tokens...), Token{ID: 999})}
		if err := m.Reserve(probe, 33, Tick(i+2)); err != nil {
			t.Fatal(err)
		}
		m.Release(probe, true)
	}
	audit(t, m)
	if m.Stats().SmallEvictions+m.Stats().LargeEvictions != 0 {
		t.Fatal("fixture evicted; it must hold the never-evicting regime")
	}
	for _, g := range m.groups {
		if bound := 2*g.nCached + heapSlack; g.evict.len() > bound {
			t.Fatalf("group %s: eviction heap holds %d entries for %d cached pages (bound %d)",
				g.spec.Name, g.evict.len(), g.nCached, bound)
		}
	}
}
