// Package core implements Jenga's memory manager: a two-level (LCM
// large page / per-type small page) allocator with request-aware
// placement (§4) and a prefix-subset evictor with per-layer-type
// caching policies (§5).
//
// The package also defines the Manager interface that the serving
// engine programs against; the PagedAttention-style baselines in
// internal/baseline implement the same interface so every experiment
// swaps only the memory manager, exactly as the paper's evaluation
// does.
package core

import (
	"errors"
	"fmt"
)

// ErrNoSpace is returned by Reserve when the manager cannot find or
// evict enough memory for the requested tokens. The scheduler reacts by
// delaying admission or preempting a running request.
var ErrNoSpace = errors.New("core: insufficient KV cache memory")

// RequestID identifies a sequence for request-aware allocation.
type RequestID int64

// Tick is the simulated time used for LRU ordering. The engine supplies
// a monotonically increasing step counter.
type Tick int64

// Token is one sequence element as the memory manager sees it: a
// content identifier (for prefix-cache hashing) and a modality flag.
type Token struct {
	// ID is the token's content identity (vocabulary id or content
	// hash); two tokens with equal IDs at equal positions after equal
	// prefixes hash to the same block.
	ID int32
	// Image marks image tokens, which only image-scoped groups store.
	Image bool
}

// Sequence is the manager-facing view of one request.
type Sequence struct {
	// ID must be unique among concurrently live sequences.
	ID RequestID
	// Tag selects which model's KV groups apply when one manager serves
	// multiple models (§6.1); empty matches untagged groups only.
	Tag string
	// Tokens holds the prompt followed by generated tokens; the engine
	// appends as decoding progresses. Tokens the manager has seen are
	// never rewritten: only a tail appended since the last Lookup or
	// Reserve may be truncated again (the engine rolls back a
	// speculative decode token whose Reserve failed). The prefix-hash
	// memo relies on this to extend incrementally.
	Tokens []Token
	// PromptLen is the number of leading prompt tokens (0 = all).
	// Prefix-cache hits land at prompt boundaries, so window KV inside
	// the prompt's final window stays in the live eviction class even
	// after generated tokens slide the window past it; KV below that is
	// expired (§3.3) and evicted first.
	PromptLen int
}

// promptBound returns the effective prompt length.
func (s *Sequence) promptBound() int {
	if s.PromptLen <= 0 || s.PromptLen > len(s.Tokens) {
		return len(s.Tokens)
	}
	return s.PromptLen
}

// Manager is the KV-cache memory-management contract shared by Jenga
// and the baselines.
type Manager interface {
	// Lookup returns the longest model-wide cached prefix, in tokens,
	// for the sequence's current Tokens. It does not claim pages.
	Lookup(seq *Sequence) int
	// Reserve guarantees KV capacity for tokens [0, upTo) of seq,
	// claiming cached prefix pages on the sequence's first reservation
	// and evicting cache as needed. It returns ErrNoSpace if capacity
	// cannot be found; partial progress is kept (the sequence stays
	// valid and can be Released).
	Reserve(seq *Sequence, upTo int, now Tick) error
	// Commit marks tokens [0, upTo) computed: KV is now valid, block
	// hashes are published for prefix caching, per-policy last-access
	// times are updated, and KV that the architecture no longer needs
	// (outside sliding windows) is freed or demoted.
	Commit(seq *Sequence, upTo int, now Tick)
	// Release ends the sequence's use of its pages. With cache true,
	// fully committed pages remain as evictable prefix cache; otherwise
	// everything returns to the free pool.
	Release(seq *Sequence, cache bool)
	// Usage returns the current memory accounting snapshot.
	Usage() Usage
	// UsageTotals returns the same snapshot without the PerGroup map —
	// the allocation-free form per-step hot paths (admission checks,
	// KV-utilization sampling) call. Totals must equal Usage()'s.
	UsageTotals() Usage
	// Capacity returns the total KV bytes under management.
	Capacity() int64
	// CachedPrefix returns the prefix length served from cache at the
	// sequence's first reservation (0 before that or on a miss).
	CachedPrefix(seq *Sequence) int
	// EncodeImages stores vision embeddings for image tokens among the
	// first uptoFull tokens (no-op for managers without an embedding
	// cache — the engine then re-runs the encoder per prefill chunk).
	EncodeImages(seq *Sequence, uptoFull int, now Tick) error
	// DropImages frees embeddings already consumed by chunked prefill.
	DropImages(seq *Sequence, uptoFull int)
	// SupportsVisionCache reports whether EncodeImages actually caches.
	SupportsVisionCache() bool
	// Footprint estimates the bytes the sequence needs resident at
	// steady state (prompt KV per the architecture's dependency
	// patterns, Mamba states and checkpoints, vision embeddings). The
	// scheduler admits a request only when Footprint fits in free plus
	// evictable memory — vLLM's can_allocate admission check.
	Footprint(seq *Sequence) int64
}

// GroupUsage is the per-layer-type slice of a Usage snapshot.
type GroupUsage struct {
	// Used is bytes holding KV that future computation may read.
	Used int64
	// Cached is bytes in evictable prefix-cache pages.
	Cached int64
	// Wasted is allocated bytes holding no useful KV: dead slots
	// (out-of-window tokens the manager cannot free), tokens stored in
	// layers that never read them, tail slots of partially filled
	// pages, and small pages stranded inside partially used large pages.
	Wasted int64
}

// Usage is a memory accounting snapshot. Used + Cached + Wasted + Free
// equals Capacity(); the host-tier fields account a separate memory
// pool and are not part of that conservation sum.
type Usage struct {
	Used   int64
	Cached int64
	Wasted int64
	// Free is unallocated bytes (plus the unusable remainder beyond the
	// last whole large page).
	Free int64
	// SharedBytes is the KV volume saved by block sharing: every page
	// referenced by r holders contributes (r-1) × its size — bytes that
	// forked branches (and claimed prefixes) would each hold privately
	// without refcounted sharing. Shared pages are counted once in
	// Used, so SharedBytes is informational and not part of the
	// conservation sum.
	SharedBytes int64
	// HostUsed and HostCapacity are the host-memory KV tier's byte
	// accounting (both 0 for managers without a tier).
	HostUsed, HostCapacity int64
	// PerGroup breaks the totals down by layer type.
	PerGroup map[string]GroupUsage
}

// check panics with a formatted message when cond is false; it guards
// internal invariants whose violation means memory-accounting
// corruption (never user error).
func check(cond bool, format string, args ...any) {
	if !cond {
		panic(fmt.Sprintf("core: invariant violated: "+format, args...))
	}
}
