// Package fleet promotes the per-replica host tier (PR 5) to a
// cluster-wide KV store and builds live request migration on the same
// transfer path.
//
// The pieces: a Directory mapping (group, block hash) → the replica
// IDs whose host tiers hold a live copy, kept consistent through the
// core.TierObserver callbacks (registered when a page is stored,
// invalidated when its live copy is evicted); and a Store that wires
// one Directory across N replica managers and runs the transfer path —
// on a local prefix miss it asks core.LookupFleet how far peers extend
// the prefix, exports the needed pages from the holder, and imports
// them into the local tier, where the ordinary claim path restores
// them. The engine charges the moved bytes as peer-link DMA
// (gpu.StepWork.PeerBytes), not PCIe.
//
// Nothing here runs its own goroutines. The cluster's router goroutine
// fetches, migrates and crashes only at barriers, with every replica
// parked; between barriers the replicas' shard goroutines register and
// invalidate concurrently, so the Directory carries a mutex. Holder
// lists are kept sorted, so those concurrent edits commute and the
// directory at each barrier does not depend on their interleaving.
//
//jenga:concurrent the directory mutex serializes observer callbacks arriving from concurrent replica goroutines
package fleet

import "sync"

// Directory tracks which replicas' host tiers hold which prefix
// blocks. Lookup is deterministic: the lowest-numbered holder wins,
// regardless of registration order. Pin defers invalidations for a
// replica while one of its exports is in flight, so a transfer source
// never vanishes from the directory mid-copy (the pinned-holder
// exclusion invariant, fuzzed in FuzzFleetDirectory).
type Directory struct {
	mu      sync.Mutex
	holders map[string]map[uint64][]int // group → hash → sorted replica IDs
	pins    map[int]int                 // replica → pin depth
	// deferred holds invalidations that arrived while their replica
	// was pinned; they apply in arrival order at the final Unpin.
	deferred map[int][]deferredInv
}

type dirKey struct {
	group string
	hash  uint64
}

// deferredInv is one pin-deferred invalidation: a single block, or —
// for a crash arriving mid-export — the holder's entire entry set.
type deferredInv struct {
	key dirKey
	all bool
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		holders:  make(map[string]map[uint64][]int),
		pins:     make(map[int]int),
		deferred: make(map[int][]deferredInv),
	}
}

// Register records that replica holds a live tier copy of each block.
func (d *Directory) Register(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	gm := d.holders[group]
	if gm == nil {
		gm = make(map[uint64][]int)
		d.holders[group] = gm
	}
	for _, h := range hashes {
		gm[h] = insertHolder(gm[h], replica)
	}
}

// Invalidate removes replica as a holder of each block. While the
// replica is pinned (an export in flight) the removal is deferred to
// Unpin so concurrent tier eviction cannot drop a transfer source
// from under a reader.
func (d *Directory) Invalidate(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[replica] > 0 {
		for _, h := range hashes {
			d.deferred[replica] = append(d.deferred[replica], deferredInv{key: dirKey{group, h}})
		}
		return
	}
	for _, h := range hashes {
		d.remove(replica, group, h)
	}
}

// InvalidateHolder removes every entry naming replica as a holder —
// the crash path: the replica's tier died with its process, so each
// of its entries is dangling. While the replica is pinned (an export
// in flight) the wipe is deferred to the final Unpin, ordered after
// any invalidations deferred before it. Returns the number of entries
// removed immediately (a deferred wipe reports 0 and applies later).
func (d *Directory) InvalidateHolder(replica int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[replica] > 0 {
		d.deferred[replica] = append(d.deferred[replica], deferredInv{all: true})
		return 0
	}
	return d.removeHolder(replica)
}

// removeHolder drops replica from every holder list, returning the
// entry count removed. Caller holds the mutex.
func (d *Directory) removeHolder(replica int) int {
	n := 0
	//jenga:order-ok each (group,hash) cell is edited independently and exactly once; no cross-cell state
	for g, gm := range d.holders {
		//jenga:order-ok per-cell mutation of the ranged map itself; unique keys commute
		for h, hs := range gm {
			for i, r := range hs {
				if r != replica {
					continue
				}
				n++
				hs = append(hs[:i], hs[i+1:]...)
				if len(hs) == 0 {
					delete(gm, h)
				} else {
					gm[h] = hs
				}
				break
			}
		}
		if len(gm) == 0 {
			delete(d.holders, g)
		}
	}
	return n
}

// Lookup returns the lowest-numbered holder of (group, hash) other
// than exclude, or false when no peer holds it. Pass a negative
// exclude to consider every holder.
func (d *Directory) Lookup(group string, hash uint64, exclude int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.holders[group][hash] {
		if r != exclude {
			return r, true
		}
	}
	return 0, false
}

// Pin marks replica as an in-flight transfer source: invalidations
// against it are deferred until the matching Unpin. Pins nest.
func (d *Directory) Pin(replica int) {
	d.mu.Lock()
	d.pins[replica]++
	d.mu.Unlock()
}

// Unpin releases one Pin; the last release applies any deferred
// invalidations.
func (d *Directory) Unpin(replica int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[replica] == 0 {
		return
	}
	d.pins[replica]--
	if d.pins[replica] > 0 {
		return
	}
	delete(d.pins, replica)
	for _, inv := range d.deferred[replica] {
		if inv.all {
			d.removeHolder(replica)
		} else {
			d.remove(replica, inv.key.group, inv.key.hash)
		}
	}
	delete(d.deferred, replica)
}

// HolderLen returns the number of live entries naming replica as a
// holder — the "no directory entry points at a dead holder" recovery
// invariant's test surface.
func (d *Directory) HolderLen(replica int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, gm := range d.holders {
		for _, hs := range gm {
			for _, r := range hs {
				if r == replica {
					n++
				}
			}
		}
	}
	return n
}

// Len returns the number of live (group, hash, holder) entries —
// test and stats surface.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, gm := range d.holders {
		for _, hs := range gm {
			n += len(hs)
		}
	}
	return n
}

// remove drops replica from (group, hash)'s holder list. Caller holds
// the mutex.
func (d *Directory) remove(replica int, group string, hash uint64) {
	gm := d.holders[group]
	hs := gm[hash]
	for i, r := range hs {
		if r == replica {
			hs = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(hs) == 0 {
		delete(gm, hash)
		if len(gm) == 0 {
			delete(d.holders, group)
		}
	} else {
		gm[hash] = hs
	}
}

// insertHolder adds replica to a sorted holder list, deduplicating.
func insertHolder(hs []int, replica int) []int {
	for i, r := range hs {
		if r == replica {
			return hs
		}
		if r > replica {
			hs = append(hs, 0)
			copy(hs[i+1:], hs[i:])
			hs[i] = replica
			return hs
		}
	}
	return append(hs, replica)
}
