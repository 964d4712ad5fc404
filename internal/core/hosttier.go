package core

import "jenga/internal/arena"

// Host-memory KV tier (§8 direction: CachedAttention, Mooncake). The
// tier stores spilled large pages — the LCM granularity, uniform
// across layer types, exactly what OffloadOrder advertises as the
// transfer unit — under a byte budget. Spills happen on the eviction
// path (evictLargeLRU copies a victim page out before discarding it)
// and proactively on swap-based preemption (SwapOut); restores happen
// when a prefix Lookup hits a block whose only copy lives in the
// tier, at claim time.
//
// The tier is pure accounting plus metadata: each spilled large page
// records the block identities (hash, priority, last access, fill)
// of its cached small pages, and — for backed arenas — the raw small
// page bytes, so tests can prove a spill/restore round trip is
// byte-exact. Everything is deterministic: spill order is the
// eviction order, tier eviction is oldest-touch-first with the spill
// sequence number as the tiebreak.

// hostBlock is one spilled small page's identity and (for backed
// arenas) contents. Recency and expiry are deliberately not carried:
// a restored block is immediately claimed (used) by a request, and
// its eviction class is recomputed from scratch when that request's
// commit/release path demotes it — host-tier residence resets a
// block's eviction history just like a fresh commit would.
type hostBlock struct {
	hash     uint64
	priority int64
	filled   int32
	// data holds the small page's bytes (backed arenas only).
	data []byte
}

// hostPage is one spilled large page: the tier's budget unit.
type hostPage struct {
	group string
	// seq is the spill sequence number — unique, so (touch, seq) is a
	// total order and tier eviction is deterministic.
	seq int64
	// touch is the page's last access (restores refresh it).
	touch Tick
	// blocks are the cached small pages the large page held at spill
	// time.
	blocks []hostBlock
	// bytes is the accounted size: one large page, regardless of how
	// many blocks it carried (the transfer granularity is the whole
	// page).
	bytes int64
}

// TierStats is the host tier's counter snapshot, exposed through the
// TierManager capability so serving layers can report tier hit rates
// and transfer volumes.
type TierStats struct {
	// SwapOuts counts large pages spilled to the host tier; SwapIns
	// counts blocks restored from it.
	SwapOuts, SwapIns int64
	// SpilledBytes and RestoredBytes are the D2H and H2D transfer
	// volumes.
	SpilledBytes, RestoredBytes int64
	// RestoredTokens counts model-wide prefix tokens the tier served
	// beyond the GPU-only prefix (tokens saved from recompute).
	RestoredTokens int64
	// HostEvictions counts spilled pages the tier dropped to stay
	// within its byte budget.
	HostEvictions int64
	// HostUsed and HostCapacity are the tier's live byte accounting.
	HostUsed, HostCapacity int64
	// PeerExports/PeerImports count pages serialized out of and
	// injected into this tier by the fleet transfer path
	// (ExportPrefix/ImportPrefix); the byte counters are the
	// corresponding wire volumes. Peer traffic is deliberately kept
	// out of SwapOuts/SpilledBytes: it rides the peer link, not PCIe.
	PeerExports, PeerImports         int64
	PeerExportBytes, PeerImportBytes int64
	// PeerSkips and PeerFails count fleet fetch batches whose holder
	// contributed nothing to this (destination) tier: skipped — the
	// holder had nothing left to export by transfer time — or failed —
	// the transfer faulted past its retry budget. Recorded through
	// NotePeerFetch so partial fetches are observable, never silent.
	PeerSkips, PeerFails int64
}

// hostTier is the byte-budgeted second memory tier.
type hostTier struct {
	capacity  int64
	pageBytes int64 // large-page size: the budget and transfer unit
	used      int64
	nextSeq   int64
	// pages holds every live spilled page by sequence number.
	pages map[int64]*hostPage
	// index maps group name → block hash → owning page sequence
	// number. A re-spill of the same hash repoints the index; the
	// older page's copy becomes unreachable and dies with its page.
	index map[string]map[uint64]int64
	// pinned pages are mid-restore and must not be evicted: a restore
	// allocates GPU pages, and that allocation may itself spill (and
	// therefore tier-evict) — it must not evict the source.
	pinned map[int64]int
	// evict orders pages by (touch, seq) for O(log n) tier eviction.
	// Entries are immutable snapshots validated lazily on pop (the
	// same pattern as the allocator's page heaps): a touch refresh
	// pushes a new entry and the stale one is skipped later or dropped
	// by compactEvict.
	evict minHeap[hostEvictEntry]
	// spare holds dropped pages for store to reuse, each with an
	// empty blocks slice that keeps its capacity and no block data.
	spare []*hostPage
	// hashes and stash are per-call scratch: the observer's hash list
	// (valid only during the callback) and evictOne's pinned entries.
	hashes []uint64
	stash  []hostEvictEntry
	stats  TierStats
	// obs, when set, is notified of every content change: block hashes
	// entering the tier (store) and leaving it (dropPage). The fleet
	// directory registers and invalidates through these callbacks; nil
	// (the default) costs nothing.
	obs TierObserver
}

// hostEvictEntry is one (touch, seq) snapshot in the eviction heap.
type hostEvictEntry struct {
	touch Tick
	seq   int64
}

// before orders by (touch, seq) — the seq tiebreak makes the order
// total, so tier eviction is deterministic.
func (a hostEvictEntry) before(b hostEvictEntry) bool {
	if a.touch != b.touch {
		return a.touch < b.touch
	}
	return a.seq < b.seq
}

// live reports whether e is the current key of a live page.
func (h *hostTier) live(e hostEvictEntry) bool {
	pg, ok := h.pages[e.seq]
	return ok && pg.touch == e.touch
}

// pushEvict queues a page's current key, dropping the stale entries
// once they could dominate the heap.
func (h *hostTier) pushEvict(e hostEvictEntry) {
	h.evict.push(e)
	if h.evict.due() {
		h.compactEvict()
	}
}

// compactEvict drops h.evict's stale entries. Every push carries a
// fresh (touch, seq) — seq is never reused and touch only grows — so
// no entry is duplicated and none turns valid again once stale.
func (h *hostTier) compactEvict() {
	s := h.evict.s
	n := 0
	for _, e := range s {
		if h.live(e) {
			s[n] = e
			n++
		}
	}
	h.evict.keep(n)
}

// newHostTier builds a tier with the given byte budget. A budget
// below one large page can never hold a spill: hasRoomEver is false
// and every caller treats the tier as absent.
func newHostTier(capacity int64, pageBytes int) *hostTier {
	return &hostTier{
		capacity:  capacity,
		pageBytes: int64(pageBytes),
		pages:     make(map[int64]*hostPage),
		index:     make(map[string]map[uint64]int64),
		pinned:    make(map[int64]int),
		stats:     TierStats{HostCapacity: capacity},
	}
}

// hasRoomEver reports whether the budget admits even one page.
func (h *hostTier) hasRoomEver() bool { return h.capacity >= h.pageBytes }

// lookup returns the tier's live copy of (group, hash). It returns a
// value, not a pointer: dropped pages are recycled, so a pointer into
// one would not stay valid.
func (h *hostTier) lookup(group string, hash uint64) (hostBlock, bool) {
	gi, ok := h.index[group]
	if !ok {
		return hostBlock{}, false
	}
	seq, ok := gi[hash]
	if !ok {
		return hostBlock{}, false
	}
	pg := h.pages[seq]
	for i := range pg.blocks {
		if pg.blocks[i].hash == hash {
			return pg.blocks[i], true
		}
	}
	check(false, "host tier: index entry %x without block", hash)
	return hostBlock{}, false
}

// groupSize returns the number of live indexed blocks for a group.
func (h *hostTier) groupSize(group string) int { return len(h.index[group]) }

// pin marks the page owning (group, hash) as un-evictable for the
// duration of a restore; it returns the page's sequence number, or
// -1 when the hash is not resident. Pins nest.
func (h *hostTier) pin(group string, hash uint64) int64 {
	gi, ok := h.index[group]
	if !ok {
		return -1
	}
	seq, ok := gi[hash]
	if !ok {
		return -1
	}
	h.pinned[seq]++
	return seq
}

// unpin releases one pin on a page (a no-op for -1 or a page the
// tier already dropped before it was ever pinned).
func (h *hostTier) unpin(seq int64) {
	if seq < 0 {
		return
	}
	if n, ok := h.pinned[seq]; ok {
		if n <= 1 {
			delete(h.pinned, seq)
		} else {
			h.pinned[seq] = n - 1
		}
	}
}

// spill stores one large page's cached blocks as a new host page,
// evicting the least-recently-touched unpinned pages as needed to
// stay within budget. It reports whether the page was stored (false
// when the budget can never fit it, or when pins block every
// eviction candidate).
func (h *hostTier) spill(group string, blocks []hostBlock, now Tick) bool {
	if !h.store(group, blocks, now) {
		return false
	}
	h.stats.SwapOuts++
	h.stats.SpilledBytes += h.pageBytes
	return true
}

// store is the common page-admission path behind the D2H spill and the
// fleet import: budget eviction, indexing, recency, observer
// registration — everything except the transfer-direction accounting,
// which the two callers charge differently. The blocks are copied into
// a recycled page when one is spare, so callers may pass scratch.
func (h *hostTier) store(group string, blocks []hostBlock, now Tick) bool {
	if !h.hasRoomEver() || len(blocks) == 0 {
		return false
	}
	for h.used+h.pageBytes > h.capacity {
		if !h.evictOne() {
			return false
		}
	}
	seq := h.nextSeq
	h.nextSeq++
	var pg *hostPage
	if n := len(h.spare); n > 0 {
		pg = h.spare[n-1]
		h.spare = h.spare[:n-1]
	} else {
		pg = &hostPage{}
	}
	*pg = hostPage{group: group, seq: seq, touch: now, blocks: append(pg.blocks, blocks...), bytes: h.pageBytes}
	h.pages[seq] = pg
	h.pushEvict(hostEvictEntry{touch: now, seq: seq})
	gi := h.index[group]
	if gi == nil {
		gi = make(map[uint64]int64)
		h.index[group] = gi
	}
	for i := range blocks {
		gi[blocks[i].hash] = seq
	}
	h.used += pg.bytes
	h.stats.HostUsed = h.used
	if h.obs != nil {
		h.hashes = h.hashes[:0]
		for i := range blocks {
			h.hashes = append(h.hashes, blocks[i].hash)
		}
		h.obs.TierStored(group, h.hashes)
	}
	return true
}

// resident reports whether every hash in hs is live in the tier —
// the dedup check that makes spill-on-evict free for pages whose
// bytes already moved to host at swap-out time.
func (h *hostTier) resident(group string, hs []uint64) bool {
	gi, ok := h.index[group]
	if !ok {
		return false
	}
	for _, hash := range hs {
		if _, ok := gi[hash]; !ok {
			return false
		}
	}
	return true
}

// touchPage refreshes the owning page's last access (restore hits),
// re-queueing it in the eviction heap; the stale entry is skipped on
// pop.
func (h *hostTier) touchPage(group string, hash uint64, now Tick) {
	if gi, ok := h.index[group]; ok {
		if seq, ok := gi[hash]; ok {
			if pg := h.pages[seq]; pg.touch < now {
				pg.touch = now
				h.pushEvict(hostEvictEntry{touch: now, seq: seq})
			}
		}
	}
}

// evictOne drops the least-recently-touched unpinned page (spill
// sequence breaks ties), reporting whether anything was dropped —
// O(log n) amortized via the lazily validated heap. Pinned
// candidates are stashed and re-queued so a pin never loses a page
// its position in the order.
func (h *hostTier) evictOne() bool {
	h.stash = h.stash[:0]
	dropped := false
	for h.evict.len() > 0 {
		e := h.evict.pop()
		if !h.live(e) {
			continue // stale: page gone or touched since
		}
		if _, p := h.pinned[e.seq]; p {
			h.stash = append(h.stash, e)
			continue
		}
		h.dropPage(h.pages[e.seq])
		h.stats.HostEvictions++
		dropped = true
		break
	}
	for _, s := range h.stash {
		h.evict.push(s)
	}
	return dropped
}

// dropPage removes a page, deleting only the index entries that
// still point at it (a later re-spill may have repointed some). The
// observer hears exactly the hashes whose live copy died — repointed
// hashes are still resident and stay registered. The page and its
// blocks array go to the spare list, emptied of block data.
func (h *hostTier) dropPage(pg *hostPage) {
	gi := h.index[pg.group]
	h.hashes = h.hashes[:0]
	for i := range pg.blocks {
		if seq, ok := gi[pg.blocks[i].hash]; ok && seq == pg.seq {
			delete(gi, pg.blocks[i].hash)
			h.hashes = append(h.hashes, pg.blocks[i].hash)
		}
	}
	delete(h.pages, pg.seq)
	h.used -= pg.bytes
	h.stats.HostUsed = h.used
	if h.obs != nil && len(h.hashes) > 0 {
		h.obs.TierEvicted(pg.group, h.hashes)
	}
	clear(pg.blocks)
	*pg = hostPage{blocks: pg.blocks[:0]}
	h.spare = append(h.spare, pg)
}

// --- Jenga integration ---------------------------------------------------

// TierManager is the optional Manager capability a host-tiered
// manager exposes to the serving engine: swap-based preemption,
// per-step transfer draining for the PCIe cost term, and tier
// statistics for reports. core.Jenga implements it; the baselines do
// not, and the engine degrades to recompute preemption for them.
type TierManager interface {
	// SwapOut releases the sequence cache-preservingly and proactively
	// spills its fully evictable large pages to the host tier,
	// returning the pages and bytes moved (zero with no tier).
	SwapOut(seq *Sequence) (pages int, bytes int64)
	// DrainTransfers returns and resets the H2D/D2H bytes moved since
	// the previous drain — the engine charges them to the step's PCIe
	// budget.
	DrainTransfers() (h2d, d2h int64)
	// TierStats snapshots the tier's counters.
	TierStats() TierStats
	// RestoreCost returns the host-restore share of the sequence's
	// prefix claim: tokens and bytes served from the tier (zero when
	// the claim was GPU-only or no claim happened).
	RestoreCost(seq *Sequence) (tokens int, bytes int64)

	// The fleet transfer surface (see fleet.go): serializing tier
	// pages out for a peer, injecting a peer's pages, the
	// peer-extended prefix lookup, and the content-change observer the
	// fleet directory registers through.
	ExportPrefix(group string, hashes []uint64) (PageSet, bool)
	ImportPrefix(ps PageSet, now Tick) (pages int, bytes int64)
	LookupFleet(seq *Sequence, peer PeerPresence) (p int, fetch []FetchBlock)
	SetTierObserver(obs TierObserver)
}

var _ TierManager = (*Jenga)(nil)

// HostTierUsage returns the tier's live byte accounting (0, 0 with no
// tier configured).
func (m *Jenga) HostTierUsage() (used, capacity int64) {
	if m.host == nil {
		return 0, 0
	}
	return m.host.used, m.host.capacity
}

// TierStats implements TierManager.
func (m *Jenga) TierStats() TierStats {
	if m.host == nil {
		return TierStats{}
	}
	return m.host.stats
}

// DrainTransfers implements TierManager.
func (m *Jenga) DrainTransfers() (h2d, d2h int64) {
	h2d, d2h = m.pendingH2D, m.pendingD2H
	m.pendingH2D, m.pendingD2H = 0, 0
	return h2d, d2h
}

// RestoreCost implements TierManager.
func (m *Jenga) RestoreCost(seq *Sequence) (int, int64) {
	if r, ok := m.reqs[seq.ID]; ok {
		return r.restoredTokens, r.restoredBytes
	}
	return 0, 0
}

// SwapOut implements TierManager: the swap-preemption primitive. The
// sequence's pages are released cache-preservingly (publishing every
// complete block, exactly like Release(seq, true)), and each large
// page that thereby became fully evictable is copied out to the host
// tier — so even if memory pressure later evicts those pages, the
// preempted request restores from host instead of recomputing. With
// no tier (or no prefix cache), SwapOut degrades to the plain
// cache-preserving release.
func (m *Jenga) SwapOut(seq *Sequence) (int, int64) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return 0, 0
	}
	var candidates []arena.LargePageID
	if m.host != nil && m.host.hasRoomEver() && m.cfg.EnablePrefixCache {
		candidates = m.heldLargePages(r)
	}
	m.Release(seq, true)
	pages, bytes := 0, int64(0)
	for _, L := range candidates {
		if m.spillLarge(L, r.lastNow) {
			pages++
			bytes += int64(m.geo.LargePageBytes)
		}
	}
	return pages, bytes
}

// heldLargePages collects, in ascending order, the distinct large
// pages holding any page the request currently references.
func (m *Jenga) heldLargePages(r *reqState) []arena.LargePageID {
	seen := make(map[arena.LargePageID]bool)
	var out []arena.LargePageID
	add := func(g *group, id arena.SmallPageID) {
		L := m.largeOf(g, id)
		if !seen[L] {
			seen[L] = true
			out = append(out, L)
		}
	}
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if rg.pages[b].held {
				add(g, rg.pages[b].id)
			}
		}
		for i := range rg.ckpts {
			if rg.ckpts[i].held {
				add(g, rg.ckpts[i].id)
			}
		}
	}
	sortLargeIDs(out)
	return out
}

// sortLargeIDs sorts ascending (tiny n; insertion sort avoids an
// import and allocation).
func sortLargeIDs(ids []arena.LargePageID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// spillLarge copies large page L's cached blocks into the host tier
// (without evicting them from the GPU), reporting whether a transfer
// happened. The page must be fully evictable — any used page on it
// means an in-flight request still references it, and spilling would
// race that commit, so such pages are skipped. Pages whose blocks
// are all already host-resident cost nothing (the swap-out already
// moved them).
func (m *Jenga) spillLarge(L arena.LargePageID, now Tick) bool {
	if m.host == nil || !m.host.hasRoomEver() {
		return false
	}
	if m.largeOwner[L] < 0 || m.cntUsed[L] != 0 || m.cntCached[L] == 0 {
		return false
	}
	g := m.groups[m.largeOwner[L]]
	first, n := g.view.SmallRange(L)
	blocks, hashes := m.tierBlocks[:0], m.tierHashes[:0]
	for i := 0; i < n; i++ {
		id := first + arena.SmallPageID(i)
		pg := &g.pages[id]
		if pg.status != pageCached || !pg.hashed {
			continue
		}
		hb := hostBlock{
			hash:     pg.hash,
			priority: pg.priority,
			filled:   pg.filled,
		}
		if m.ar.Backed() {
			if buf, err := g.view.SmallSlice(id); err == nil {
				hb.data = append([]byte(nil), buf...)
			}
		}
		blocks = append(blocks, hb)
		hashes = append(hashes, pg.hash)
	}
	m.tierBlocks, m.tierHashes = blocks, hashes
	if len(blocks) == 0 {
		return false
	}
	if m.host.resident(g.spec.Name, hashes) {
		// Dedup: the bytes already live in the tier (a swap-out beat
		// the evictor here); just refresh recency.
		m.host.touchPage(g.spec.Name, hashes[0], now)
		return false
	}
	if !m.host.spill(g.spec.Name, blocks, now) {
		return false
	}
	m.stats.SwapOuts++
	m.pendingD2H += int64(m.geo.LargePageBytes)
	return true
}

// restoreBlock allocates a GPU page for a host-resident block and
// rebuilds it as a committed, published block owned by req (claim's
// H2D path). The source host page must be pinned by the caller; the
// host copy stays (the tier is a cache). Returns the page and
// whether the GPU allocation succeeded.
func (m *Jenga) restoreBlock(g *group, hb hostBlock, hash uint64, req RequestID, now Tick) (arena.SmallPageID, bool) {
	id, err := m.allocSmall(g, req)
	if err != nil {
		return 0, false
	}
	pg := &g.pages[id]
	pg.filled = hb.filled
	g.filledSlots += int64(hb.filled)
	pg.hash = hash
	pg.complete = true
	pg.priority = hb.priority
	pg.lastAccess = now
	if _, ok := g.index[hash]; !ok {
		g.index[hash] = id
		pg.hashed = true
	}
	if m.ar.Backed() && hb.data != nil {
		if buf, err := g.view.SmallSlice(id); err == nil {
			copy(buf, hb.data)
		}
	}
	m.host.touchPage(g.spec.Name, hash, now)
	m.host.stats.SwapIns++
	m.host.stats.RestoredBytes += int64(g.smallBytes)
	m.stats.SwapIns++
	m.pendingH2D += int64(g.smallBytes)
	return id, true
}
