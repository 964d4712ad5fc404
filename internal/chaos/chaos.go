// Package chaos is the fleet's deterministic fault injector: a
// seeded, immutable Plan of timed fault events that the cluster
// replays against a run's simulated clock.
//
// Faults come in two shapes. Point events — replica crash (the GPU
// heap, the host tier and every in-flight request die with the
// process) and restart (the replica returns with a cold tier) — fire
// once, at an instant. Window events — degraded PCIe/peer-link
// bandwidth and slow-replica stragglers — hold over an interval and
// scale the cost model's terms for every step inside it. On top of
// the schedule, a Plan carries per-transfer failure rates for fleet
// peer fetches and migration moves, drawn from a seeded stream.
//
// Everything is deterministic and replayable: a Plan is pure data, a
// Cursor (Plan.Start) holds one run's replay position and its seeded
// failure stream, and two runs of the same plan over the same arrival
// stream make identical decisions at identical instants. The zero
// plan — no events, zero rates — injects nothing, and the layers
// consuming it are bit-identical to a chaos-unaware build (the
// golden-pinned contract).
//
// The package is a leaf: it knows nothing about engines, replicas or
// pages, only instants, factors and draws. The cluster layer owns
// applying the events (internal/cluster's ChaosPolicy).
package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// KindCrash kills a replica at Event.At: tier contents and
	// in-flight KV are lost, the router stops sending traffic.
	KindCrash Kind = iota
	// KindRestart returns a crashed replica to service with a cold
	// tier.
	KindRestart
	// KindDegrade scales the replica's PCIe and peer-link bandwidths
	// by Event.PCIe/Event.Link over [At, Until).
	KindDegrade
	// KindStraggle multiplies the replica's step time by Event.Slow
	// over [At, Until) — the slow-replica straggler.
	KindStraggle
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	case KindDegrade:
		return "degrade"
	case KindStraggle:
		return "straggle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one timed fault against one replica.
type Event struct {
	Kind    Kind
	Replica int
	// At is the fault instant; Until closes a Degrade/Straggle window
	// (point events ignore it).
	At, Until time.Duration
	// PCIe and Link scale the respective link bandwidths inside a
	// Degrade window (0 < f ≤ 1: 0.25 means a quarter of nominal).
	// Slow multiplies step time inside a Straggle window (≥ 1).
	PCIe, Link, Slow float64
}

// window reports whether the event holds over an interval rather than
// firing at an instant.
func (e Event) window() bool {
	return e.Kind == KindDegrade || e.Kind == KindStraggle
}

// Plan is a seeded, reproducible fault schedule. Build one with
// NewPlan and the chainable event methods, set the transfer failure
// rates directly, then hand it to the cluster; the plan itself is
// immutable during a run (all per-run state lives in a Cursor).
type Plan struct {
	// Seed drives the transfer-failure stream (and nothing else: the
	// event schedule is explicit).
	Seed int64
	// FetchFailRate is the probability that one fleet peer-transfer
	// attempt fails (timeout/link error); MigrateFailRate the same for
	// one migration page move. Both are per-attempt draws from the
	// seeded stream; zero never fails.
	FetchFailRate   float64
	MigrateFailRate float64
	// Events is the schedule, kept sorted by At (stable, so
	// same-instant events apply in insertion order).
	Events []Event
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// Crash schedules a replica crash at the instant.
func (p *Plan) Crash(replica int, at time.Duration) *Plan {
	return p.add(Event{Kind: KindCrash, Replica: replica, At: at})
}

// Restart schedules a crashed replica's cold restart at the instant.
func (p *Plan) Restart(replica int, at time.Duration) *Plan {
	return p.add(Event{Kind: KindRestart, Replica: replica, At: at})
}

// Degrade schedules a degraded-bandwidth window on the replica: PCIe
// and peer-link bandwidth scale by pcie and link (clamped to (0, 1];
// pass 1 to leave a link nominal).
func (p *Plan) Degrade(replica int, at, until time.Duration, pcie, link float64) *Plan {
	return p.add(Event{Kind: KindDegrade, Replica: replica, At: at, Until: until,
		PCIe: clampFactor(pcie), Link: clampFactor(link)})
}

// Straggle schedules a slow-replica window: every step on the replica
// takes slow× its nominal time (clamped to ≥ 1).
func (p *Plan) Straggle(replica int, at, until time.Duration, slow float64) *Plan {
	if slow < 1 {
		slow = 1
	}
	return p.add(Event{Kind: KindStraggle, Replica: replica, At: at, Until: until, Slow: slow})
}

// add inserts the event keeping Events sorted by At, stable on ties.
func (p *Plan) add(ev Event) *Plan {
	i := sort.Search(len(p.Events), func(i int) bool { return p.Events[i].At > ev.At })
	p.Events = append(p.Events, Event{})
	copy(p.Events[i+1:], p.Events[i:])
	p.Events[i] = ev
	return p
}

// clampFactor forces a bandwidth factor into (0, 1]; zero or negative
// means "not degraded" and maps to 1.
func clampFactor(f float64) float64 {
	if f <= 0 || f > 1 {
		return 1
	}
	return f
}

// Window returns the combined degrade/straggle factors active on the
// replica at the instant: pcie and link multiply the respective
// bandwidths (≤ 1), slow multiplies step time (≥ 1). Overlapping
// windows compound. Nominal is (1, 1, 1).
func (p *Plan) Window(replica int, at time.Duration) (pcie, link, slow float64) {
	pcie, link, slow = 1, 1, 1
	for i := range p.Events {
		ev := &p.Events[i]
		if !ev.window() || ev.Replica != replica || at < ev.At || at >= ev.Until {
			continue
		}
		switch ev.Kind {
		case KindDegrade:
			pcie *= ev.PCIe
			link *= ev.Link
		case KindStraggle:
			slow *= ev.Slow
		}
	}
	return pcie, link, slow
}

// Fingerprint hashes the complete schedule — seed, rates and every
// event — so determinism tests can assert two plans are the same plan
// and reports can identify the schedule they ran.
func (p *Plan) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(p.Seed))
	mix(uint64(p.FetchFailRate * float64(1<<32)))
	mix(uint64(p.MigrateFailRate * float64(1<<32)))
	for i := range p.Events {
		ev := &p.Events[i]
		mix(uint64(ev.Kind))
		mix(uint64(ev.Replica))
		mix(uint64(ev.At))
		mix(uint64(ev.Until))
		mix(uint64(ev.PCIe * float64(1<<32)))
		mix(uint64(ev.Link * float64(1<<32)))
		mix(uint64(ev.Slow * float64(1<<32)))
	}
	return h
}

// Cursor is one run's mutable view of a plan: the replay position
// over the point events (crash/restart) and the seeded
// transfer-failure stream. Window events need no cursor — they are
// pure functions of the clock (Plan.Window).
//
// A Cursor is not safe for concurrent use; the cluster consults it
// only from its router goroutine, at barriers.
type Cursor struct {
	plan *Plan
	next int    // index into plan.Events of the next candidate
	rng  uint64 // splitmix64 state for the failure stream
}

// Start returns a fresh cursor positioned before the first event,
// with the failure stream reset to the seed.
func (p *Plan) Start() *Cursor {
	c := &Cursor{plan: p, rng: uint64(p.Seed)}
	c.skipWindows()
	return c
}

// skipWindows advances next past window events, which the cursor
// never replays.
func (c *Cursor) skipWindows() {
	for c.next < len(c.plan.Events) && c.plan.Events[c.next].window() {
		c.next++
	}
}

// Peek returns the next unapplied point event without consuming it.
func (c *Cursor) Peek() (Event, bool) {
	if c.next >= len(c.plan.Events) {
		return Event{}, false
	}
	return c.plan.Events[c.next], true
}

// Pop consumes the event Peek returned.
func (c *Cursor) Pop() {
	if c.next < len(c.plan.Events) {
		c.next++
		c.skipWindows()
	}
}

// FailFetch draws once from the seeded stream against FetchFailRate:
// true means this peer-transfer attempt fails.
func (c *Cursor) FailFetch() bool {
	return c.draw() < c.plan.FetchFailRate
}

// FailMigration draws once against MigrateFailRate: true means this
// migration transfer times out.
func (c *Cursor) FailMigration() bool {
	return c.draw() < c.plan.MigrateFailRate
}

// FailTransfer adapts FailFetch onto the fleet store's fault hook
// (fleet.TransferFaults, satisfied structurally).
func (c *Cursor) FailTransfer(src, dst int) bool { return c.FailFetch() }

// draw returns the next uniform [0, 1) variate of the failure stream
// (splitmix64 — tiny, seedable, and stable across platforms).
func (c *Cursor) draw() float64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
