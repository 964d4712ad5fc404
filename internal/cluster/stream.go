//jenga:concurrent the serve loop: replica shards, bounded mailboxes, and the barrier channels
package cluster

import (
	"fmt"
	"sync"
	"time"

	"jenga/internal/engine"
	"jenga/internal/fleet"
	"jenga/internal/workload"
)

// StreamConfig tunes ServeStream's sharded event loops.
type StreamConfig struct {
	// Shards is the number of replica event-loop goroutines; replica i
	// runs on shard i mod Shards. 0 or negative defaults to 1; values
	// above the replica count are clamped (an empty shard is useless).
	Shards int
	// Mailbox is each shard's bounded command-queue depth (routed
	// arrivals plus barriers). 0 defaults to 256.
	Mailbox int
	// SnapshotEvery is the barrier epoch K in simulated time: at every
	// multiple of K the shards park and publish their replicas'
	// SnapshotTotals, and the router reads those epoch snapshots
	// instead of per-arrival state. Smaller K is fresher load state
	// but more synchronization; 0 defaults to 10ms. A config with a
	// chaos plan or any fleet mechanism takes a barrier at every
	// arrival instead (ServeOnline's schedule), because crashes,
	// migrations and peer fetches act on several replicas at once.
	SnapshotEvery time.Duration
}

const (
	defaultMailbox       = 256
	defaultSnapshotEvery = 10 * time.Millisecond
	// noBarriers is the epoch of a serve loop that never parks the
	// shards: routers see only the drained estimates (Serve).
	noBarriers time.Duration = -1
)

// streamCmd is one shard-mailbox entry: a routed arrival or a barrier
// at instant at. Commands reach each shard in router order, so
// per-replica arrival order is exactly the routing order.
type streamCmd struct {
	req     workload.Request
	rep     int
	at      time.Duration
	barrier bool
}

// streamShard is one replica event loop: it owns replicas rep where
// rep mod shards == id, consumes its mailbox in FIFO order, and parks
// at barriers.
type streamShard struct {
	owned []int // replica indices, ascending
	cmds  chan streamCmd
	// ack signals one completed barrier. From the ack until the
	// router's next command the shard waits on its empty mailbox and
	// touches nothing: the router may read snaps and drive the owned
	// engines directly (the channel operations order every access on
	// either side).
	ack   chan struct{}
	snaps []engine.Snapshot
	acc   retireAcc
	err   error
}

// run is the shard goroutine body. On error it keeps consuming (and
// acking barriers) so the router never blocks; the error surfaces at
// the next barrier or after the drain.
func (s *streamShard) run(engines []*engine.Engine, wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range s.cmds {
		switch {
		case s.err != nil:
		case cmd.barrier:
			for i, rep := range s.owned {
				if err := engines[rep].AdvanceTo(cmd.at); err != nil {
					s.err = fmt.Errorf("cluster: replica %d: %w", rep, err)
					break
				}
				s.snaps[i] = engines[rep].SnapshotTotals()
			}
		default:
			// Submit retains the pointer; the command is a loop
			// variable, so give the engine its own copy.
			req := cmd.req
			e := engines[cmd.rep]
			if err := e.AdvanceTo(req.Arrival); err != nil {
				s.err = fmt.Errorf("cluster: replica %d: %w", cmd.rep, err)
			} else if err := e.Submit(&req); err != nil {
				s.err = fmt.Errorf("cluster: replica %d: %w", cmd.rep, err)
			}
		}
		if cmd.barrier {
			s.ack <- struct{}{}
		}
	}
	if s.err != nil {
		return
	}
	for _, rep := range s.owned {
		if err := engines[rep].Drain(); err != nil {
			s.err = fmt.Errorf("cluster: replica %d: %w", rep, err)
			return
		}
	}
}

// ServeStream is the serve loop over a streamed workload (never
// materialized) with StreamConfig.Shards shard goroutines and a
// barrier every SnapshotEvery of simulated time. The O(replicas ×
// arrivals) snapshot work that dominates ServeOnline's large runs
// becomes O(replicas × epochs); finished requests cost 24 B each in
// the aggregator, nothing else is kept.
//
// The drive is a conservative parallel discrete-event simulation: at
// each epoch boundary E·K every shard advances its replicas exactly to
// E·K and publishes their SnapshotTotals, and only then does routing
// proceed. Snapshots are taken at exact simulated instants, so the
// result is a pure function of the workload, config and K —
// independent of the shard count and of wall-clock scheduling. For a
// load-oblivious router (prefix affinity, round robin) routing never
// reads engine state, every replica receives exactly the ServeOnline
// request sequence, and the Result equals ServeOnline's at any shard
// count. Load-aware routers see epoch-stale state (staleness < K)
// instead of per-arrival state, so their placements are statistically
// — not bit — equivalent to ServeOnline's. A config with a chaos plan
// or a fleet mechanism takes a barrier at every arrival, so its Result
// equals ServeOnline's for every router.
//
// Arrivals must be non-decreasing (PoissonSource and MergeSources
// guarantee this). Every count, rate, sum and percentile in the Result
// is exact.
func (c *Cluster) ServeStream(src workload.Source, sc StreamConfig) (*Result, error) {
	mailbox := sc.Mailbox
	if mailbox <= 0 {
		mailbox = defaultMailbox
	}
	every := sc.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	return c.drive(src, sc.Shards, mailbox, every, true)
}

// driver is the router side of one serve pass.
type driver struct {
	c      *Cluster
	shards []*streamShard
	// every is the barrier epoch: 0 parks the shards at every arrival,
	// noBarriers never. live publishes barrier snapshots to the router.
	every time.Duration
	live  bool
	epoch int64
	place *placer
	st    *passState
	// routed counts requests per group label (starvation accounting).
	routed map[int64]int
}

// drive is the one cluster serve loop behind Serve, ServeOnline and
// ServeStream: shards (clamped to [1, replicas]) event-loop goroutines
// with mailbox-deep mailboxes, a barrier every `every` of simulated
// time (0: at every arrival; noBarriers: never), and load snapshots
// published to the router when live.
func (c *Cluster) drive(src workload.Source, shards, mailbox int, every time.Duration, live bool) (*Result, error) {
	n := len(c.engines)
	if c.cfg.Chaos.enabled() || c.cfg.Fleet.enabled() {
		every = 0
	}
	shards = min(max(shards, 1), n)
	for _, e := range c.engines {
		e.Reset()
	}
	d := &driver{
		c: c, every: every, live: live, epoch: -1,
		place:  c.newPlacer(),
		st:     newPassState(n, c.cfg.Chaos),
		routed: make(map[int64]int),
		shards: make([]*streamShard, shards),
	}
	for i := range d.shards {
		d.shards[i] = &streamShard{
			cmds: make(chan streamCmd, mailbox),
			ack:  make(chan struct{}, 1),
			acc:  retireAcc{groups: make(map[int64]*groupAcc)},
		}
	}
	// Each engine retires into its shard's accumulator; the sink runs
	// wherever the engine is being driven.
	for rep, e := range c.engines {
		s := d.shards[rep%shards]
		s.owned = append(s.owned, rep)
		e.SetRetireSink(s.acc.observe)
	}
	defer func() {
		for _, e := range c.engines {
			e.SetRetireSink(nil)
		}
	}()
	var storeBase fleet.StoreStats
	if c.store != nil {
		storeBase = c.store.Stats()
		if d.st.cur != nil {
			c.store.SetFaults(d.st.cur, c.cfg.Chaos.attempts())
			defer c.store.SetFaults(nil, 1)
		}
	}
	var wg sync.WaitGroup
	for _, s := range d.shards {
		s.snaps = make([]engine.Snapshot, len(s.owned))
		wg.Add(1)
		go s.run(c.engines, &wg)
	}

	err := d.routeAll(src)
	if err == nil {
		// Crashes and restarts scheduled after the last arrival.
		err = d.applyChaos(1 << 62)
	}
	// Close the mailboxes and let the shards drain their replicas.
	for _, s := range d.shards {
		close(s.cmds)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	acc := &d.shards[0].acc
	for _, s := range d.shards {
		if s.err != nil {
			return nil, s.err
		}
		if s != d.shards[0] {
			acc.merge(&s.acc)
		}
	}
	out := c.aggregate(d.place.loads, acc, d.routed)
	st := d.st.stats
	out.Crashes, out.Restarts = st.crashes, st.restarts
	out.Redispatched, out.LostRequests = st.redispatched, st.lost
	out.DirInvalidations, out.MigrationRollbacks = st.dirInvalidations, st.rollbacks
	if c.store != nil {
		ss := c.store.Stats()
		out.FetchRetries = ss.Retries - storeBase.Retries
		out.FetchFailures = ss.Failed - storeBase.Failed
		out.FetchSkips = ss.Skipped - storeBase.Skipped
	}
	return out, nil
}

// routeAll pulls the source dry, placing each arrival.
func (d *driver) routeAll(src workload.Source) error {
	for {
		r, ok := src.Next()
		if !ok {
			return nil
		}
		if r.Arrival < d.place.last {
			return fmt.Errorf("cluster: arrivals must be non-decreasing (got %v after %v)", r.Arrival, d.place.last)
		}
		d.routed[r.Group]++
		var err error
		if d.every == 0 {
			err = d.arriveAtBarrier(r)
		} else {
			err = d.arrive(r)
		}
		if err != nil {
			return err
		}
	}
}

// arrive places r between barriers: the owning shard advances the
// chosen replica to r's arrival and submits it.
func (d *driver) arrive(r *workload.Request) error {
	if d.every > 0 {
		if e := int64(r.Arrival / d.every); e > d.epoch {
			d.epoch = e
			if err := d.barrier(time.Duration(e) * d.every); err != nil {
				return err
			}
		}
	}
	rep := d.place.place(r)
	d.place.account(rep, r)
	d.shards[rep%len(d.shards)].cmds <- streamCmd{req: *r, rep: rep}
	return nil
}

// arriveAtBarrier places r with every shard parked at r's arrival
// instant, the serial reference: chaos events due before it apply at
// their own instants, routing sees per-arrival state, and the fleet
// mechanisms and the submission act on the engines directly.
func (d *driver) arriveAtBarrier(r *workload.Request) error {
	c, st := d.c, d.st
	if err := d.applyChaos(r.Arrival); err != nil {
		return err
	}
	if err := d.barrier(r.Arrival); err != nil {
		return err
	}
	st.refreshHealth(c.cfg.Chaos.Plan, r.Arrival)
	if d.live {
		for j := range d.place.loads {
			d.place.loads[j].Health = st.health[j]
		}
	}
	// Scale-down: at the first arrival past the drain deadline the
	// tail replicas evacuate — live requests migrate to survivors
	// (Fleet.Migrate) or shed — and stop receiving new work.
	if c.cfg.Fleet.DrainAfter > 0 && !st.drainFired && r.Arrival >= c.cfg.Fleet.DrainAfter {
		st.drainFired = true
		c.drainReplicas(st)
	}
	rep := d.place.place(r)
	if st.drained[rep] || st.health[rep] != Healthy {
		// The router's pick is out of service (drained, dead, or
		// inside a fault window): fall over to the coolest healthy
		// survivor (lowest index on ties). With nowhere better to go
		// the pick stands.
		if alt := c.coolestReplica(st, -1); alt >= 0 {
			rep = alt
		}
	}
	// Fleet store: if peers hold prefix blocks this replica lacks,
	// move them into its host tier before the request is submitted
	// (the admission claim then restores them locally).
	c.fleetFetch(rep, r.ID, r.Prompt)
	req := new(workload.Request)
	*req = *r
	if err := c.engines[rep].Submit(req); err != nil {
		return fmt.Errorf("cluster: replica %d: %w", rep, err)
	}
	d.place.account(rep, r)
	// Imbalance rebalancing: at most one migration per arrival,
	// hottest surviving replica to coolest.
	c.rebalance(st)
	return nil
}

// barrier parks every shard at instant at: each advances its replicas
// exactly to at, snapshots them and acks. Live snapshots land in the
// router's loads.
func (d *driver) barrier(at time.Duration) error {
	for _, s := range d.shards {
		s.cmds <- streamCmd{at: at, barrier: true}
	}
	for _, s := range d.shards {
		<-s.ack
	}
	for _, s := range d.shards {
		if s.err != nil {
			return s.err
		}
		if !d.live {
			continue
		}
		for i, rep := range s.owned {
			l, snap := &d.place.loads[rep], &s.snaps[i]
			l.Live = true
			l.Usage = snap.Usage
			l.QueueDepth = snap.Pending + snap.Waiting
			l.OutstandingTokens = snap.OutstandingTokens
		}
	}
	return nil
}
