package core

import (
	"fmt"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// pageRef is a request's handle on one block's page. held is false for
// blocks the request skipped (below a window at claim time) or has
// already demoted.
type pageRef struct {
	id   arena.SmallPageID
	held bool
}

// reqGroup is the per-(request, group) state.
type reqGroup struct {
	// pages is indexed by block number (token groups).
	pages         []pageRef
	projReserved  int
	projCommitted int
	// demotedBlocks is the block index below which pages have been
	// demoted, freed, or skipped.
	demotedBlocks int

	// Incremental hashing state (projCommitted tokens consumed).
	chain       uint64
	runChain    uint64
	lastFullIdx int
	// projPrompt is the projected length of the sequence's prompt part
	// committed so far (window KV above projPrompt−Window stays in the
	// live eviction class; see Sequence.PromptLen).
	projPrompt int

	// Mamba state.
	hasWork  bool
	work     arena.SmallPageID
	baseProj int
	nextCkpt int // next checkpoint position to pre-allocate
	ckptDone int // checkpoints finalized so far
	ckpts    []pageRef
	ckptPos  []int

	// Vision-embedding state (driven by EncodeImages / DropImages).
	visPages   []pageRef
	visProj    int // projected image tokens encoded
	visCursor  int // full-token cursor for EncodeImages
	visDropped int // blocks fully dropped
	dropCursor int // full-token cursor for DropImages
	dropProj   int
}

// reqState is the per-request manager state.
type reqState struct {
	id           RequestID
	reserved     int // full-sequence tokens with KV slots reserved
	committed    int // full-sequence tokens with valid KV
	lastNow      Tick
	claimed      bool
	cachedPrefix int
	// restoredTokens is the model-wide prefix the host tier added
	// beyond what the GPU cache alone validated at claim time — the
	// tokens a restore saved from recompute; restoredBytes the H2D
	// volume the restores moved (RestoreCost reads both).
	restoredTokens int
	restoredBytes  int64
	g              []reqGroup
}

func (m *Jenga) getReq(seq *Sequence) *reqState {
	if r, ok := m.reqs[seq.ID]; ok {
		return r
	}
	r := &reqState{id: seq.ID, g: make([]reqGroup, len(m.groups))}
	for i := range r.g {
		rg := &r.g[i]
		rg.chain = blockHashSeed
		rg.runChain = blockHashSeed
		rg.lastFullIdx = -1
		if m.groups[i].spec.Kind == model.Mamba {
			rg.nextCkpt = m.groups[i].spec.Checkpoint()
		}
	}
	m.reqs[seq.ID] = r
	return r
}

// appliesTo reports whether a group stores KV for the sequence's model
// (multi-model tagging, §6.1). Untagged groups apply to every sequence.
func (g *group) appliesTo(seq *Sequence) bool {
	return g.spec.Tag == "" || g.spec.Tag == seq.Tag
}

// countScope counts tokens in toks that group g stores.
func countScope(g *group, toks []Token) int {
	if g.spec.Scope == model.ScopeAll {
		return len(toks)
	}
	n := 0
	for _, t := range toks {
		if g.spec.StoresToken(t.Image) {
			n++
		}
	}
	return n
}

// Footprint implements Manager.
func (m *Jenga) Footprint(seq *Sequence) int64 {
	var total int64
	for _, g := range m.groups {
		if !g.appliesTo(seq) {
			continue
		}
		proj := countScope(g, seq.Tokens)
		if proj == 0 {
			continue
		}
		pages := 0
		switch g.spec.Kind {
		case model.Mamba:
			pages = 1 // working state
			if m.cfg.EnablePrefixCache {
				pages += proj / g.spec.Checkpoint()
			}
		case model.SlidingWindow, model.PyramidWindow:
			keep := proj
			if keep > g.spec.Window {
				keep = g.spec.Window
			}
			// +1 page of slack for the chunk crossing the window edge.
			pages = (keep+g.tpp-1)/g.tpp + 1
		case model.VisionEmbedding:
			// Embeddings for every image token exist right after
			// encoding (§6.2a), before consumption frees them.
			pages = (proj + g.tpp - 1) / g.tpp
		default:
			pages = (proj + g.tpp - 1) / g.tpp
		}
		total += int64(pages) * int64(g.smallBytes)
	}
	return total
}

// CachedPrefix implements Manager: the prefix length served from cache
// at the sequence's first reservation.
func (m *Jenga) CachedPrefix(seq *Sequence) int {
	if r, ok := m.reqs[seq.ID]; ok {
		return r.cachedPrefix
	}
	return 0
}

// --- Lookup --------------------------------------------------------------

// Lookup implements Manager (§5.2): per-group views are built, each
// policy's hit rule is evaluated, and the longest model-wide valid
// prefix is returned. With a host tier, blocks whose only copy lives
// one tier down count as present — claiming such a prefix restores
// them (H2D) instead of recomputing.
//
//jenga:hotpath
func (m *Jenga) Lookup(seq *Sequence) int {
	return m.lookupPrefix(seq, m.host != nil)
}

// lookupPrefix is Lookup with host-tier presence switchable: the
// claim fallback path re-evaluates the prefix GPU-only when a restore
// ran out of device memory.
//
//jenga:hotpath
func (m *Jenga) lookupPrefix(seq *Sequence, useHost bool) int {
	if !m.cfg.EnablePrefixCache {
		return 0
	}
	maxP := len(seq.Tokens) - 1 // at least one token must run
	if maxP <= 0 || !m.buildViews(seq, useHost) {
		return 0
	}
	return m.longestValidPrefix(maxP)
}

// lookupView pairs a group with its Lookup view and its scope's hash
// memo; lookupPrefix reuses the manager-level slice of them across
// calls.
type lookupView struct {
	g    *group
	view *GroupSeqView
	memo *hashMemo
}

// buildViews fills m.lkViews with the Lookup view of every group that
// gates KV hits for seq, and reports whether any of them could hit at
// all (no present block and no checkpoint candidate means no prefix).
//
//jenga:hotpath
func (m *Jenga) buildViews(seq *Sequence, useHost bool) bool {
	views := m.lkViews[:0]
	anyPresent := false
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // never gates KV hits
		}
		h := m.memoFor(g, seq)
		v := m.buildView(g, h, useHost)
		for _, ok := range v.Present {
			if ok {
				anyPresent = true
				break
			}
		}
		if g.spec.Kind == model.Mamba {
			// Presence detection for Mamba handled via CheckpointAt in
			// the candidate scan; mark possible presence cheaply.
			anyPresent = anyPresent || len(g.index) > 0 ||
				(useHost && m.host.groupSize(g.spec.Name) > 0)
		}
		views = append(views, lookupView{g, v, h})
	}
	m.lkViews = views
	return anyPresent
}

// longestValidPrefix scans m.lkViews for the longest prefix below
// maxP that every group's policy validates.
//
//jenga:hotpath
func (m *Jenga) longestValidPrefix(maxP int) int {
candidates:
	for p := maxP; p > 0; p-- {
		for _, gv := range m.lkViews {
			// Hit prefixes must project to whole blocks in every token
			// group so claiming is block-exact.
			if gv.g.spec.Kind != model.Mamba && gv.view.ProjCount[p]%gv.g.tpp != 0 {
				continue candidates
			}
			if !gv.g.pol.ValidPrefix(gv.view, p) {
				continue candidates
			}
		}
		return p
	}
	return 0
}

// buildView constructs the Lookup view of group g over the sequence
// memo h covers. With useHost, host-tier-resident blocks count as
// present. The view is built into per-group scratch (g.lkView) and its
// ProjCount is the memo's, so the warm-lookup path allocates nothing
// and hashes nothing: block k's identity is read from the memo.
//
//jenga:hotpath
func (m *Jenga) buildView(g *group, h *hashMemo, useHost bool) *GroupSeqView {
	v := &g.lkView
	v.BlockTokens = g.tpp
	v.ProjCount = h.projCount
	if g.spec.Kind == model.Mamba {
		m.mambaPresence(g, h, v, useHost)
		return v
	}
	v.CheckpointAt = nil
	nb := len(h.chain) / g.tpp
	present := v.Present[:0]
	for k := 0; k < nb; k++ {
		hsh := h.chain[(k+1)*g.tpp-1]
		ok := false
		if id, found := g.index[hsh]; found {
			pg := &g.pages[id]
			ok = pg.hashed && pg.hash == hsh && pg.status != pageEmpty
		}
		if !ok && useHost {
			_, ok = m.host.lookup(g.spec.Name, hsh)
		}
		present = append(present, ok)
	}
	v.Present = present
	v.buildRuns()
	return v
}

// mambaPresence fills a Mamba group's view: CheckpointAt reports the
// checkpoints (every Checkpoint() projected tokens) whose prefix hash
// is published, or with useHost tier-resident.
func (m *Jenga) mambaPresence(g *group, h *hashMemo, v *GroupSeqView, useHost bool) {
	every := g.spec.Checkpoint()
	present := make(map[int]bool)
	for pos := every; pos <= len(h.chain); pos += every {
		hsh := h.at(pos)
		if id, ok := g.index[hsh]; ok {
			pg := &g.pages[id]
			if pg.hashed && pg.hash == hsh && pg.status != pageEmpty {
				present[pos] = true
			}
		}
		if !present[pos] && useHost {
			if _, ok := m.host.lookup(g.spec.Name, hsh); ok {
				present[pos] = true
			}
		}
	}
	v.CheckpointAt = func(pos int) bool { return present[pos] }
	v.Present = nil
	v.buildRuns()
}

// --- Reserve -------------------------------------------------------------

// Reserve implements Manager.
//
//jenga:hotpath
func (m *Jenga) Reserve(seq *Sequence, upTo int, now Tick) error {
	if upTo > len(seq.Tokens) {
		//jenga:alloc-ok caller-bug error path, never taken on the measured steady state
		return fmt.Errorf("core: reserve %d beyond sequence length %d", upTo, len(seq.Tokens))
	}
	r := m.getReq(seq)
	if !r.claimed {
		r.claimed = true
		if m.cfg.EnablePrefixCache {
			m.claim(seq, r, now)
		}
	}
	if upTo <= r.reserved {
		return nil
	}
	delta := seq.Tokens[r.reserved:upTo]
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // vision is driven by EncodeImages
		}
		rg := &r.g[gi]
		add := countScope(g, delta)
		if add == 0 {
			continue
		}
		newProj := rg.projReserved + add
		if g.spec.Kind == model.Mamba {
			if err := m.reserveMamba(g, rg, r.id, newProj); err != nil {
				return err
			}
			continue
		}
		lastBlock := (newProj - 1) / g.tpp
		for len(rg.pages) <= lastBlock {
			rg.pages = append(rg.pages, pageRef{})
		}
		// Copy-on-write boundary: the scan starts at the committed tail
		// block, not the reserved one, because every block from there to
		// lastBlock will receive this reservation's commits — a block
		// still shared with a fork sibling (ref > 1) must be privatized
		// before those writes land. Blocks between the committed and
		// reserved positions are always held, so with no sharing the
		// extra iterations fall through the held-page skip and behavior
		// is identical to scanning from projReserved.
		b0 := rg.projCommitted / g.tpp
		if rb := rg.projReserved / g.tpp; rb < b0 {
			b0 = rb
		}
		for b := b0; b <= lastBlock; b++ {
			if rg.pages[b].held {
				if pg := &g.pages[rg.pages[b].id]; pg.ref > 1 {
					id, err := m.cowPage(g, rg.pages[b].id, r.id)
					if err != nil {
						return err
					}
					rg.pages[b] = pageRef{id: id, held: true}
				}
				continue // partial block page from a previous chunk
			}
			id, err := m.allocSmall(g, r.id)
			if err != nil {
				return err
			}
			rg.pages[b] = pageRef{id: id, held: true}
		}
		rg.projReserved = newProj
	}
	r.reserved = upTo
	return nil
}

// reserveMamba ensures a working state page exists and pre-allocates
// checkpoint pages for the boundaries this reservation will cross.
func (m *Jenga) reserveMamba(g *group, rg *reqGroup, req RequestID, newProj int) error {
	if !rg.hasWork {
		id, err := m.allocSmall(g, req)
		if err != nil {
			return err
		}
		rg.work = id
		rg.hasWork = true
		pg := &g.pages[id]
		pg.filled = 1 // the working state occupies the page
		g.filledSlots++
	}
	if m.cfg.EnablePrefixCache {
		every := g.spec.Checkpoint()
		for rg.nextCkpt <= newProj {
			id, err := m.allocSmall(g, req)
			if err != nil {
				return err
			}
			rg.ckpts = append(rg.ckpts, pageRef{id: id, held: true})
			rg.ckptPos = append(rg.ckptPos, rg.nextCkpt)
			rg.nextCkpt += every
		}
	}
	rg.projReserved = newProj
	return nil
}

// --- Commit --------------------------------------------------------------

// Commit implements Manager.
//
//jenga:hotpath
func (m *Jenga) Commit(seq *Sequence, upTo int, now Tick) {
	r := m.getReq(seq)
	if upTo > r.reserved {
		check(false, "commit %d beyond reserved %d for request %d", upTo, r.reserved, r.id)
	}
	if upTo <= r.committed {
		return
	}
	r.lastNow = now
	delta := seq.Tokens[r.committed:upTo]
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		m.commitGroup(g, rg, delta, r.committed, seq.promptBound(), now)
	}
	r.committed = upTo
}

//jenga:hotpath
func (m *Jenga) commitGroup(g *group, rg *reqGroup, delta []Token, fullBase, promptBound int, now Tick) {
	mamba := g.spec.Kind == model.Mamba
	pos := rg.projCommitted
	for i, t := range delta {
		if !g.spec.StoresToken(t.Image) {
			continue
		}
		fi := fullBase + i
		if rg.lastFullIdx != fi-1 {
			rg.runChain = rg.chain // a new contiguous run starts here
		}
		rg.lastFullIdx = fi
		rg.chain = hashChain(rg.chain, t)
		if fi < promptBound {
			rg.projPrompt = pos + 1
		}
		if mamba {
			pos++
			if rg.ckptDone < len(rg.ckptPos) && pos == rg.ckptPos[rg.ckptDone] {
				m.finalizeCheckpoint(g, rg, rg.ckptDone, now)
				rg.ckptDone++
			}
			continue
		}
		b := pos / g.tpp
		if b >= len(rg.pages) || !rg.pages[b].held {
			check(false, "commit into unreserved block %d", b)
		}
		pg := &g.pages[rg.pages[b].id]
		pg.filled++
		g.filledSlots++
		pos++
		if pos%g.tpp == 0 {
			pg.hash = rg.chain
			pg.complete = true
			pg.priority = g.pol.BlockPriority(b, rg.runChain)
			if m.cfg.EnablePrefixCache {
				if _, ok := g.index[pg.hash]; !ok {
					g.index[pg.hash] = rg.pages[b].id
					pg.hashed = true
				}
			}
		}
	}
	rg.projCommitted = pos
	if mamba {
		return
	}
	// Demote blocks that fell outside the dependency horizon (§5.3).
	freeBelow := g.pol.FreeBelow(pos)
	fullBlocksBelow := freeBelow / g.tpp
	// Blocks inside the prompt's final window serve future prefix hits
	// at prompt boundaries — and a shared-prefix boundary (e.g. the
	// document before a per-request question) can sit anywhere within
	// that window, needing its own window below it. KV below 2×Window
	// under the prompt end is truly expired.
	expireBelow := rg.projPrompt - 2*g.spec.Window - 2*g.tpp
	// Policies with an always-live head region (attention sinks) keep
	// those pages held regardless of the window.
	keep := 0
	if ka, ok := g.pol.(KeepAlive); ok {
		keep = ka.KeptBelow(pos)
	}
	for b := rg.demotedBlocks; b < fullBlocksBelow; b++ {
		if rg.pages[b].held {
			if b*g.tpp < keep {
				continue // always-live head page stays held
			}
			// Out-of-window KV: cached for shorter-prefix hits but
			// first in line for eviction (§3.3, §5.3).
			expired := (b+1)*g.tpp <= expireBelow
			m.pageRelease(g, rg.pages[b].id, m.cfg.EnablePrefixCache, now, expired)
			rg.pages[b].held = false
		}
	}
	if fullBlocksBelow > rg.demotedBlocks {
		rg.demotedBlocks = fullBlocksBelow
	}
	// Dead slots in the boundary block share a page with live slots.
	if db := freeBelow % g.tpp; db > 0 && fullBlocksBelow < len(rg.pages) && rg.pages[fullBlocksBelow].held {
		pg := &g.pages[rg.pages[fullBlocksBelow].id]
		if int32(db) > pg.dead {
			g.deadSlots += int64(int32(db) - pg.dead)
			pg.dead = int32(db)
		}
	}
}

// finalizeCheckpoint publishes the i-th Mamba state snapshot: the state
// content at that position is copied into the pre-allocated page and
// its prefix hash published for hits at that exact position (§5.3).
func (m *Jenga) finalizeCheckpoint(g *group, rg *reqGroup, i int, now Tick) {
	check(rg.ckpts[i].held, "checkpoint page %d not held", i)
	pg := &g.pages[rg.ckpts[i].id]
	if pg.filled == 0 {
		pg.filled = 1
		g.filledSlots++
	}
	pg.hash = rg.chain
	pg.complete = true
	pg.priority = g.pol.BlockPriority(i, rg.runChain)
	pg.lastAccess = now
	if _, ok := g.index[pg.hash]; !ok {
		g.index[pg.hash] = rg.ckpts[i].id
		pg.hashed = true
	}
}

// --- Release -------------------------------------------------------------

// Release implements Manager.
//
//jenga:hotpath
func (m *Jenga) Release(seq *Sequence, cache bool) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return
	}
	cache = cache && m.cfg.EnablePrefixCache
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if rg.pages[b].held {
				m.pageRelease(g, rg.pages[b].id, cache, r.lastNow, false)
			}
		}
		for _, ref := range rg.visPages {
			if ref.held {
				m.pageRelease(g, ref.id, false, r.lastNow, false)
			}
		}
		if rg.hasWork {
			m.pageRelease(g, rg.work, false, r.lastNow, false)
		}
		for i := range rg.ckpts {
			if rg.ckpts[i].held {
				pg := &g.pages[rg.ckpts[i].id]
				m.pageRelease(g, rg.ckpts[i].id, cache, pg.lastAccess, false)
			}
		}
		delete(g.freeByReq, r.id)
	}
	delete(m.reqs, seq.ID)
}

// --- Prefix-cache claiming ------------------------------------------------

// claim runs at a request's first reservation: it finds the model-wide
// cached prefix and attaches the corresponding pages (§5.2), so the
// engine can skip computing those tokens. With a host tier, blocks
// whose only copy lives one tier down are restored (H2D) as part of
// the claim; if device memory runs out mid-restore, the claim rolls
// back and falls back to the GPU-only prefix, which never allocates.
//
//jenga:hotpath
func (m *Jenga) claim(seq *Sequence, r *reqState, now Tick) {
	// An empty tier cannot assist any lookup, so skip the host passes
	// (including the hostAssist probe below) until something spilled.
	useHost := m.host != nil && len(m.host.pages) > 0
	p := m.lookupPrefix(seq, useHost)
	// hostAssist is the model-wide prefix the tier adds beyond what
	// the GPU cache alone validates — the tokens a restore saves from
	// recompute. Measured before claiming (afterwards restored blocks
	// are GPU-resident and the difference vanishes).
	hostAssist := 0
	if useHost && p > 0 {
		if pGPU := m.lookupPrefix(seq, false); pGPU < p {
			hostAssist = p - pGPU
		}
	}
	if p > 0 && !m.claimPrefix(seq, r, p, now, useHost) {
		m.rollbackClaim(seq, r)
		p = m.lookupPrefix(seq, false)
		if p > 0 {
			check(m.claimPrefix(seq, r, p, now, false),
				"claim: GPU-only fallback claim failed")
		}
	} else if hostAssist > 0 {
		r.restoredTokens = hostAssist
		m.stats.RestoredTokens += int64(hostAssist)
		m.host.stats.RestoredTokens += int64(hostAssist)
	}
	r.cachedPrefix = p
	r.reserved = p
	r.committed = p
}

// pendingRestore is one host-tier block a claim must bring back:
// block ≥ 0 names a token-group block, block < 0 a Mamba checkpoint
// at projected position pl.
type pendingRestore struct {
	g     *group
	rg    *reqGroup
	block int
	hash  uint64
	pl    int
}

// claimPrefix attaches the pages of a p-token valid prefix to r. It
// runs in two passes: pass 1 claims every GPU-resident block across
// all groups (no allocation — claiming pins them in the used state),
// pass 2 restores host-tier blocks, whose allocations may evict or
// spill anything *not* pinned by pass 1 or the tier pins. It reports
// false when a pass-2 allocation failed (partial state attached —
// the caller rolls back). With useHost false it is the historical
// claim, performs no allocation, and always succeeds.
//
//jenga:hotpath
func (m *Jenga) claimPrefix(seq *Sequence, r *reqState, p int, now Tick, useHost bool) bool {
	var pending []pendingRestore
	for gi, g := range m.groups {
		rg := &r.g[gi]
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		// Hashing state as if the prefix had been committed, read from
		// the memo the lookup that chose p just extended.
		h := m.memoFor(g, seq)
		pl := h.projCount[p]
		rg.chain = h.at(pl)
		rg.runChain, rg.lastFullIdx = h.lastRun(p)
		if g.spec.Kind == model.Mamba {
			if useHost && pl > 0 {
				if _, ok := g.index[rg.chain]; !ok {
					if _, hok := m.host.lookup(g.spec.Name, rg.chain); hok {
						//jenga:alloc-ok host-tier restores only; a GPU-resident claim appends nothing
						pending = append(pending, pendingRestore{g: g, rg: rg, block: -1, hash: rg.chain, pl: pl})
						continue
					}
				}
			}
			m.claimMamba(g, rg, pl, now)
			continue
		}
		if pl%g.tpp != 0 {
			check(false, "claim: group %s prefix %d not block aligned", g.spec.Name, pl)
		}
		nb := pl / g.tpp
		rg.pages = make([]pageRef, nb)
		lo := g.pol.AccessedFrom(pl) / g.tpp
		keepBlocks := 0
		if ka, ok := g.pol.(KeepAlive); ok {
			keepBlocks = (ka.KeptBelow(pl) + g.tpp - 1) / g.tpp
		}
		for b := 0; b < keepBlocks && b < lo; b++ {
			pending = m.claimBlock(g, rg, r.id, b, h.at((b+1)*g.tpp), useHost, pending) // always-live head (attention sinks)
		}
		for b := lo; b < nb; b++ {
			pending = m.claimBlock(g, rg, r.id, b, h.at((b+1)*g.tpp), useHost, pending)
		}
		rg.projReserved = pl
		rg.projCommitted = pl
		rg.demotedBlocks = lo
	}
	if len(pending) == 0 {
		return true
	}
	// Pass 2: every source page is pinned before the first restore,
	// because a restore's allocation can spill — and a spill's tier
	// eviction must never drop a sibling restore's source.
	pins := make([]int64, len(pending))
	for i, pr := range pending {
		pins[i] = m.host.pin(pr.g.spec.Name, pr.hash)
	}
	ok := true
	for _, pr := range pending {
		hb, found := m.host.lookup(pr.g.spec.Name, pr.hash)
		check(found, "claim: pinned host block vanished mid-claim")
		id, allocOK := m.restoreBlock(pr.g, hb, pr.hash, r.id, now)
		if !allocOK {
			ok = false
			break
		}
		r.restoredBytes += int64(pr.g.smallBytes)
		if pr.block >= 0 {
			pr.rg.pages[pr.block] = pageRef{id: id, held: true}
		} else {
			// Mamba checkpoint: park the restored page as published
			// cache, then claim it through the normal path.
			m.pageRelease(pr.g, id, true, now, false)
			m.claimMamba(pr.g, pr.rg, pr.pl, now)
		}
	}
	for _, s := range pins {
		m.host.unpin(s)
	}
	return ok
}

// claimBlock attaches block b (published under hash) of a claimed
// prefix to rg, pinning its page in the used state; a block only the
// host tier holds is queued on pending for claimPrefix's restore pass.
//
//jenga:hotpath
func (m *Jenga) claimBlock(g *group, rg *reqGroup, req RequestID, b int, hash uint64, useHost bool, pending []pendingRestore) []pendingRestore {
	id, ok := g.index[hash]
	if !ok {
		if !useHost {
			check(false, "claim: block %d of group %s vanished", b, g.spec.Name)
		}
		return append(pending, pendingRestore{g: g, rg: rg, block: b, hash: hash})
	}
	pg := &g.pages[id]
	check(pg.hashed && pg.hash == hash, "claim: stale index entry")
	switch pg.status {
	case pageCached:
		m.pageToUsed(g, id, req)
	case pageUsed:
		m.pageAddRef(g, id)
	default:
		check(false, "claim: empty page in index")
	}
	rg.pages[b] = pageRef{id: id, held: true}
	return pending
}

// rollbackClaim detaches everything a failed claimPrefix attached:
// held pages return to the evictable cache (keeping whatever H2D work
// already succeeded — the restored blocks are now GPU-resident and
// the fallback claim picks them up), and the per-group claim state
// resets to its pre-claim form.
func (m *Jenga) rollbackClaim(seq *Sequence, r *reqState) {
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if rg.pages[b].held {
				pg := &g.pages[rg.pages[b].id]
				m.pageRelease(g, rg.pages[b].id, m.cfg.EnablePrefixCache, pg.lastAccess, false)
			}
		}
		r.g[gi] = reqGroup{chain: blockHashSeed, runChain: blockHashSeed, lastFullIdx: -1}
		if g.spec.Kind == model.Mamba {
			r.g[gi].nextCkpt = g.spec.Checkpoint()
		}
	}
	r.restoredTokens = 0
	r.restoredBytes = 0
}

// claimMamba restores the working state from a cached checkpoint.
func (m *Jenga) claimMamba(g *group, rg *reqGroup, pl int, now Tick) {
	if pl == 0 {
		return
	}
	id, ok := g.index[rg.chain]
	check(ok, "claimMamba: checkpoint at %d vanished", pl)
	pg := &g.pages[id]
	// Touch the checkpoint (the paper updates only the last cached
	// state's access time) and re-queue it under its full current key.
	if pg.status == pageCached {
		// Re-keying a cached page re-keys its large page: losing the
		// old value may lower the max (a warm engine restart resets
		// ticks, so `now` can be below it — mark dirty), the new value
		// may raise it.
		L := m.largeOf(g, id)
		if pg.lastAccess == m.largeTS[L] {
			m.largeDirty[L] = true
		}
		pg.lastAccess = now
		if now > m.largeTS[L] {
			m.largeTS[L] = now
		}
		if pg.expired {
			check(false, "claimMamba: checkpoint page %d expired", id)
		}
		g.pushPage(pg, id)
	} else {
		pg.lastAccess = now
	}
	rg.baseProj = pl
	rg.nextCkpt = pl + g.spec.Checkpoint()
	rg.projReserved = pl
	rg.projCommitted = pl
}

// --- Vision embeddings (§6.2) ----------------------------------------------

// EncodeImages implements Manager: allocates and fills vision-embedding
// pages for every image token among the first uptoFull tokens. The
// engine calls it after running the (simulated) vision encoder.
func (m *Jenga) EncodeImages(seq *Sequence, uptoFull int, now Tick) error {
	if uptoFull > len(seq.Tokens) {
		return fmt.Errorf("core: encode %d beyond sequence length %d", uptoFull, len(seq.Tokens))
	}
	r := m.getReq(seq)
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		for fi := rg.visCursor; fi < uptoFull; fi++ {
			if !seq.Tokens[fi].Image {
				continue
			}
			b := rg.visProj / g.tpp
			for len(rg.visPages) <= b {
				rg.visPages = append(rg.visPages, pageRef{})
			}
			if !rg.visPages[b].held {
				id, err := m.allocSmall(g, r.id)
				if err != nil {
					rg.visCursor = fi
					return err
				}
				rg.visPages[b] = pageRef{id: id, held: true}
			} else if pg := &g.pages[rg.visPages[b].id]; pg.ref > 1 {
				// Copy-on-write: the partial embedding block is shared
				// with a fork sibling; privatize before writing into it.
				id, err := m.cowPage(g, rg.visPages[b].id, r.id)
				if err != nil {
					rg.visCursor = fi
					return err
				}
				rg.visPages[b] = pageRef{id: id, held: true}
			}
			pg := &g.pages[rg.visPages[b].id]
			pg.filled++
			g.filledSlots++
			rg.visProj++
		}
		rg.visCursor = uptoFull
	}
	r.lastNow = now
	return nil
}

// DropImages implements Manager: frees vision-embedding pages whose
// image tokens have been fully consumed by chunked prefill (§6.2's
// free-on-demand strategy).
func (m *Jenga) DropImages(seq *Sequence, uptoFull int) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return
	}
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		if uptoFull > len(seq.Tokens) {
			uptoFull = len(seq.Tokens)
		}
		for fi := rg.dropCursor; fi < uptoFull; fi++ {
			if seq.Tokens[fi].Image {
				rg.dropProj++
			}
		}
		rg.dropCursor = uptoFull
		fullBlocksBelow := rg.dropProj / g.tpp
		for b := rg.visDropped; b < fullBlocksBelow && b < len(rg.visPages); b++ {
			if rg.visPages[b].held {
				m.pageRelease(g, rg.visPages[b].id, false, r.lastNow, false)
				rg.visPages[b].held = false
			}
		}
		if fullBlocksBelow > rg.visDropped {
			rg.visDropped = fullBlocksBelow
		}
	}
}

// Diagnose reports per-group cache coverage for a sequence (debugging
// and observability): for each group, the number of present blocks out
// of the total complete blocks.
func (m *Jenga) Diagnose(seq *Sequence) string {
	out := ""
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		if g.spec.Kind == model.Mamba {
			continue
		}
		v := m.buildView(g, m.memoFor(g, seq), m.host != nil)
		present, runEnd := 0, 0
		for k, ok := range v.Present {
			if ok {
				present++
				if runEnd == k {
					runEnd++
				}
			}
		}
		out += fmt.Sprintf("[%s %d/%d contig=%d]", g.spec.Name, present, len(v.Present), runEnd)
	}
	return out
}
