package core

import "jenga/internal/model"

// Block hashing for prefix caching. As in vLLM, a block's hash chains
// the parent block's hash with the block's token IDs, so a hash value
// identifies the entire prefix up to and including the block. Presence
// in the index is per block: evicting an early block makes that block
// miss without invalidating the identities of later blocks, which is
// what lets sliding-window layers hit on prefixes whose early tokens
// are gone (§5.2).

// blockHashSeed distinguishes an empty chain from a zero hash.
const blockHashSeed uint64 = 0x6A656E6761_5F4B56 // "jenga_KV"

// hashChain extends a parent hash with one token.
func hashChain(parent uint64, tok Token) uint64 {
	x := parent ^ (uint64(uint32(tok.ID)) + 0x9E3779B97F4A7C15)
	if tok.Image {
		x ^= 0xA5A5A5A5A5A5A5A5
	}
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// PrefixHash returns the chained hash over the first n tokens (the
// whole sequence when n exceeds it). It is the same chain prefix
// caching publishes per block, so two requests that share a cached
// prefix share its PrefixHash — cluster routers use it to steer
// prefix-sharing requests to the same replica.
func PrefixHash(tokens []Token, n int) uint64 {
	if n > len(tokens) {
		n = len(tokens)
	}
	h := blockHashSeed
	for _, t := range tokens[:n] {
		h = hashChain(h, t)
	}
	return h
}

// hashMemo is the one prefix-hash path of the lookup side: for one
// token scope, the projection of the most recently looked-up sequence
// onto that scope and the chain value after every projected token.
// Every consumer indexes it instead of walking tokens — block k of a
// group with tpp tokens per block hashes to at((k+1)·tpp), a Mamba
// checkpoint at projected position pos to at(pos), a claim's replay
// state is at(pl) — so each prompt token is hashed once per scope no
// matter how many groups, lookups and claims read it.
type hashMemo struct {
	// projCount[i] is the number of in-scope tokens among the first i
	// (length n+1); it doubles as every same-scope view's ProjCount.
	projCount []int
	// chain[j] is the chain value after projected token j.
	chain []uint64
	// Identity of the n tokens covered. Sequence.Tokens only loses a
	// tail the memo has not seen, so the same request on the same
	// backing array with its first and n-th tokens intact is an
	// append-only extension; a different request, a reallocated or
	// aliased array, or a shorter sequence forces a rebuild.
	id    RequestID
	base  *Token
	n     int
	first Token
	last  Token
}

// at returns the chain value over the first pos projected tokens.
//
//jenga:hotpath
func (h *hashMemo) at(pos int) uint64 {
	if pos == 0 {
		return blockHashSeed
	}
	return h.chain[pos-1]
}

// lastRun returns, over the first p tokens, the full-sequence index of
// the last in-scope token (-1 when there is none) and the chain value
// just before the contiguous in-scope run ending there — the
// lastFullIdx and runChain commitGroup would hold after committing
// those p tokens.
//
//jenga:hotpath
func (h *hashMemo) lastRun(p int) (runChain uint64, last int) {
	pc := h.projCount
	last = p - 1
	for last >= 0 && pc[last+1] == pc[last] {
		last--
	}
	if last < 0 {
		return blockHashSeed, -1
	}
	s := last
	for s > 0 && pc[s] > pc[s-1] {
		s--
	}
	return h.at(pc[s]), last
}

// memoFor returns the hash memo of g's token scope extended over seq's
// tokens: the whole memo when seq is not the sequence it covers, only
// the new tail when it is.
//
//jenga:hotpath
func (m *Jenga) memoFor(g *group, seq *Sequence) *hashMemo {
	s := g.spec.Scope
	if s != model.ScopeText && s != model.ScopeImage {
		s = model.ScopeAll // StoresToken treats any other scope as all
	}
	h := &m.memos[s]
	tokens := seq.Tokens
	if h.n == 0 || h.id != seq.ID || len(tokens) < h.n || h.base != &tokens[0] ||
		h.first != tokens[0] || h.last != tokens[h.n-1] {
		h.projCount = append(h.projCount[:0], 0)
		h.chain = h.chain[:0]
		h.n = 0
	}
	c := h.at(len(h.chain))
	for _, t := range tokens[h.n:] {
		if g.spec.StoresToken(t.Image) {
			c = hashChain(c, t)
			h.chain = append(h.chain, c)
		}
		h.projCount = append(h.projCount, len(h.chain))
	}
	h.id, h.n = seq.ID, len(tokens)
	if h.n > 0 {
		h.base, h.first, h.last = &tokens[0], tokens[0], tokens[h.n-1]
	}
	return h
}
