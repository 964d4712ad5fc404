package cluster

import (
	"time"

	"jenga/internal/chaos"
	"jenga/internal/core"
	"jenga/internal/engine"
)

// ChaosPolicy attaches a deterministic fault-injection plan to the
// cluster (see internal/chaos). The zero value disables everything —
// a cluster without a plan is bit-identical to one built before chaos
// existed.
//
// Degrade and straggler windows slow the affected replica's simulated
// steps; crash/restart point events and transfer faults apply at
// barriers of the serve loop, which a config with a plan takes at
// every arrival and at every crash or restart instant (Serve,
// ServeOnline and ServeStream alike).
type ChaosPolicy struct {
	// Plan is the seeded fault schedule. Nil: no faults.
	Plan *chaos.Plan
	// Recover enables the recovery machinery: crashed replicas'
	// directory entries are invalidated, their in-flight requests are
	// re-dispatched to survivors (recompute from prompt), and peer
	// transfers retry within FetchAttempts before falling back to
	// local recompute. Without it the cluster takes the faults raw:
	// crashed requests are lost, dangling directory entries linger
	// until tier churn clears them, and every transfer gets exactly
	// one attempt.
	Recover bool
	// FetchAttempts bounds the per-batch peer-transfer retry loop when
	// Recover is set (0 → 3). Ignored without Recover: one attempt.
	FetchAttempts int
}

// defaultFetchAttempts is the recovery-mode transfer retry bound.
const defaultFetchAttempts = 3

// enabled reports whether a plan is attached.
func (p ChaosPolicy) enabled() bool { return p.Plan != nil }

// attempts resolves the transfer attempt bound for this policy.
func (p ChaosPolicy) attempts() int {
	if !p.Recover {
		return 1
	}
	if p.FetchAttempts > 0 {
		return p.FetchAttempts
	}
	return defaultFetchAttempts
}

// Health is a replica's liveness as the router sees it.
type Health uint8

const (
	// Healthy: serving normally.
	Healthy Health = iota
	// Sick: alive but inside a degraded or straggler window — routing
	// prefers healthy replicas and falls over when a router picks it.
	Sick
	// Dead: crashed and not yet restarted — never routed to.
	Dead
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Sick:
		return "sick"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// replicaFaults adapts one replica's view of the chaos plan onto the
// engine's per-step fault hook: every step reads the plan's degrade
// and straggler windows at the current simulated clock.
type replicaFaults struct {
	plan    *chaos.Plan
	replica int
}

func (f *replicaFaults) StepFault(clock time.Duration) engine.StepFault {
	pcie, link, slow := f.plan.Window(f.replica, clock)
	return engine.StepFault{PCIe: pcie, Link: link, Slow: slow}
}

// chaosStats accumulates what the fault machinery did during one
// serve pass.
type chaosStats struct {
	crashes, restarts int
	redispatched      int
	lost              int
	dirInvalidations  int
	rollbacks         int
}

// passState is the per-pass fleet state the serve loop threads
// through the routing and fleet helpers: which replicas are drained
// for scale-down (drainFired latches the one-shot scale-down), each
// replica's chaos health, and the live fault cursor.
type passState struct {
	drained    []bool
	drainFired bool
	health     []Health
	// cur walks the chaos plan's point events and failure streams (nil
	// without a plan — every fault check short-circuits off).
	cur     *chaos.Cursor
	recover bool
	stats   chaosStats
}

func newPassState(n int, pol ChaosPolicy) *passState {
	st := &passState{
		drained: make([]bool, n),
		health:  make([]Health, n),
		recover: pol.Recover,
	}
	if pol.Plan != nil {
		st.cur = pol.Plan.Start()
	}
	return st
}

// applyChaos applies every pending point event with At ≤ upTo, in
// order, each at a barrier at its own instant: every replica has
// advanced to the event first, so a crash takes exactly the progress
// made before it and nothing after.
func (d *driver) applyChaos(upTo time.Duration) error {
	st := d.st
	if st.cur == nil {
		return nil
	}
	for {
		ev, ok := st.cur.Peek()
		if !ok || ev.At > upTo {
			return nil
		}
		if err := d.barrier(ev.At); err != nil {
			return err
		}
		switch ev.Kind {
		case chaos.KindCrash:
			d.c.crashReplica(st, ev.Replica)
		case chaos.KindRestart:
			d.c.restartReplica(st, ev.Replica)
		}
		st.cur.Pop()
	}
}

// crashReplica kills one replica at the current instant: every
// in-flight request's KV and queue state is lost and its manager
// restarts cold. With recovery on, the fleet reacts — the directory
// drops the dead holder's entries and the lost requests re-dispatch to
// the coolest survivors, recomputing from their prompts. Without it
// the requests die with the replica.
func (c *Cluster) crashReplica(st *passState, rep int) {
	if rep < 0 || rep >= len(c.engines) || st.health[rep] == Dead {
		return
	}
	st.health[rep] = Dead
	st.stats.crashes++
	lost := c.engines[rep].CrashOut()
	if cr, ok := c.managers[rep].(core.Crasher); ok {
		// The tier dies with the process: CrashReset swaps in a cold
		// manager behind the same pointer the engine and store hold.
		_ = cr.CrashReset()
	}
	if !st.recover {
		st.stats.lost += len(lost)
		return
	}
	if c.store != nil {
		st.stats.dirInvalidations += c.store.Crash(rep)
	}
	for _, m := range lost {
		dst := c.coolestReplica(st, rep)
		if dst < 0 {
			st.stats.lost++
			continue
		}
		c.engines[dst].MigrateIn(m)
		st.stats.redispatched++
	}
}

// restartReplica brings a crashed replica back with a cold tier. Its
// manager was already reset at crash time; new content re-registers in
// the directory through the still-attached observer as it is spilled.
func (c *Cluster) restartReplica(st *passState, rep int) {
	if rep < 0 || rep >= len(c.engines) || st.health[rep] != Dead {
		return
	}
	st.health[rep] = Healthy
	st.stats.restarts++
}

// refreshHealth re-derives each live replica's Sick/Healthy state from
// the plan's windows at the given instant (Dead is sticky until a
// restart event clears it).
func (st *passState) refreshHealth(plan *chaos.Plan, at time.Duration) {
	if plan == nil {
		return
	}
	for j := range st.health {
		if st.health[j] == Dead {
			continue
		}
		pcie, link, slow := plan.Window(j, at)
		if pcie != 1 || link != 1 || slow != 1 {
			st.health[j] = Sick
		} else {
			st.health[j] = Healthy
		}
	}
}
