// Package cluster scales the single-engine serving simulation out to a
// multi-replica cluster: N independent engine.Engine replicas — each
// with its own core.Manager heap and simulated gpu.Device — run
// concurrently on shard goroutines, while a pluggable Router decides
// which replica serves each request of the arrival stream.
//
// The routing decision is where the paper's single-engine story meets
// production scale-out: prefix-cache hit rate depends on *which*
// replica a request lands on, because each replica caches only the
// prefixes it has served. Round-robin spreads every prefix class over
// every replica (each must cache everything); prefix-affinity
// consistent-hashes the prompt prefix so sharing requests co-locate and
// the fleet's caches partition the prefix space — the PagedAttention
// sharing insight lifted one level up.
//
// There is one serve loop (stream.go). A router goroutine pulls the
// arrival stream, places each request and hands it to the shard that
// owns the chosen replica through a bounded mailbox; each shard
// advances only its own engines. The router touches engine state only
// at a barrier, an exact simulated instant at which every shard has
// advanced its replicas and parked: there it reads load snapshots,
// applies chaos crashes and restarts, drains and migrates for the
// fleet, fetches from the fleet store and submits directly. The three
// public methods differ only in how often barriers come: Serve never
// takes one (routers see drained estimates), ServeOnline takes one at
// every arrival (routers see live per-replica state — measured Usage,
// queue depth, outstanding tokens, Load.Live), and ServeStream takes
// one every StreamConfig.SnapshotEvery of simulated time, or at every
// arrival when a chaos plan or a fleet mechanism is configured. Every
// path retires finished requests through the engines' retire sinks
// into one exact aggregator.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"jenga/internal/core"
	"jenga/internal/detmap"
	"jenga/internal/engine"
	"jenga/internal/fleet"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// Config configures a Cluster.
type Config struct {
	// Spec is the model every replica serves (required).
	Spec *model.Spec
	// Device is each replica's simulated GPU (default H100).
	Device gpu.Device
	// Replicas is the number of engine replicas (required, ≥ 1).
	Replicas int
	// Policy selects a built-in router (ignored when Router is set).
	Policy RouterPolicy
	// Router overrides Policy with a custom implementation.
	Router Router
	// NewManager builds replica i's memory manager. Default: a Jenga
	// manager with prefix caching and request-aware placement on
	// CapacityBytes.
	NewManager func(replica int) (core.Manager, error)
	// CapacityBytes is the per-replica KV budget for the default
	// manager (0 → gpu.KVBudget for Spec on Device).
	CapacityBytes int64
	// HostTierBytes is each default manager's host-memory KV tier
	// budget (0 = no tier): whole-large-page eviction then spills to
	// host instead of discarding, and prefix lookups restore spilled
	// blocks over PCIe. Ignored when NewManager is set — a custom
	// manager configures its own tier.
	HostTierBytes int64
	// PreemptMode forwards the preemption strategy to every replica
	// engine: recompute (default, historical) or swap (preemption
	// victims move to the host tier and resume by restore).
	PreemptMode engine.PreemptMode
	// MaxBatchTokens, MaxRunning and MaxPrefills forward to each
	// replica's engine.Config.
	MaxBatchTokens int
	MaxRunning     int
	MaxPrefills    int
	// AffinityPrefixTokens is the prompt prefix length PrefixAffinity
	// hashes (default 256).
	AffinityPrefixTokens int
	// VNodes is the consistent-hash ring points per replica (default 64).
	VNodes int
	// Admission forwards an admission policy to every replica engine:
	// online serving sheds at each request's arrival instant against
	// that replica's live memory and queue state. Nil admits all.
	Admission engine.AdmissionPolicy
	// Scheduler forwards a scheduling policy (admission order,
	// preemption victims, prefill/decode budget) to every replica
	// engine. Nil means FCFS, the historical behavior.
	Scheduler sched.Scheduler
	// NewScheduler, when set, overrides Scheduler per replica — a
	// heterogeneous fleet can run, say, one SJF latency replica next
	// to FairShare bulk replicas. Returning nil for a replica falls
	// back to Scheduler (and from there to FCFS).
	NewScheduler func(replica int) sched.Scheduler
	// SLOTTFT is the fleet time-to-first-token target SLO attainment
	// is measured against (0: attainment over per-request deadlines).
	SLOTTFT time.Duration
	// Fleet configures the cluster-wide KV store and live request
	// migration (see FleetPolicy). Zero value: disabled — no
	// directory, no peer transfers, no migration.
	Fleet FleetPolicy
	// Chaos attaches a deterministic fault-injection plan and the
	// recovery machinery (see ChaosPolicy). Zero value: no faults,
	// bit-identical to a chaos-free cluster.
	Chaos ChaosPolicy
	// EventSink, when set, receives every replica engine's events
	// tagged with the replica index. Events arrive throughout the run
	// from the shard goroutines, several at once (and from the router
	// goroutine at barriers), so implementations must be
	// goroutine-safe. Each replica's events arrive in its own order.
	EventSink func(replica int, ev engine.Event)
}

// ReplicaResult is one replica's share of a cluster run.
type ReplicaResult struct {
	// Replica is the replica index.
	Replica int
	// Requests is how many requests were routed here.
	Requests int
	// RoutedTokens is the work routed here (prompt + output tokens).
	RoutedTokens int64
	// Result is the replica engine's full result.
	Result *engine.Result
}

// Result aggregates one cluster run.
type Result struct {
	// Policy is the router that produced this run.
	Policy string
	// Replicas is the fleet size.
	Replicas int
	// Duration is the wall time of the run: the slowest replica.
	Duration time.Duration
	// Finished and Failed sum across replicas.
	Finished, Failed int
	// ReqPerSec is total finished requests per wall second.
	ReqPerSec float64
	// TokensPerSec is total computed prompt plus generated tokens per
	// wall second.
	TokensPerSec float64
	// P50TTFT/P99TTFT/P50E2E/P99E2E are latency percentiles over every
	// finished request in the fleet.
	P50TTFT, P99TTFT, P50E2E, P99E2E time.Duration
	// HitRate is the fleet-wide prefix-cache hit rate: cached prompt
	// tokens over cached plus computed prompt tokens (exact aggregate,
	// not a mean of per-replica ratios).
	HitRate float64
	// Imbalance is max/mean of per-replica routed tokens (1.0 = even).
	Imbalance float64
	// MeanKVUtil averages the per-replica mean KV utilization.
	MeanKVUtil float64
	// Shed counts requests the replicas' admission policies dropped
	// (online serving; 0 without an admission policy).
	Shed int
	// Goodput is deadline-meeting finishes per wall second (equals
	// ReqPerSec when no request carries a deadline).
	Goodput float64
	// SLOAttainment is the fraction of finished requests with TTFT at
	// or under Config.SLOTTFT (with no target: the fraction meeting
	// their own deadlines; 1 when neither is set).
	SLOAttainment float64
	// GroupJain is Jain's fairness index over per-group (tenant)
	// served tokens across the whole fleet: 1.0 means every prefix
	// group received an even share of the fleet's work, 1/groups
	// means one group got everything. 1 when no request finished or
	// no request carries a group label.
	GroupJain float64
	// MaxGroupMeanTTFT is the worst per-group mean TTFT — the
	// starvation indicator a fair scheduler bounds: under overload a
	// starving tenant's mean TTFT grows without bound while the
	// fleet-wide mean stays flat.
	MaxGroupMeanTTFT time.Duration
	// StarvedGroups counts groups that were routed at least one
	// request but finished none.
	StarvedGroups int
	// TierHitRate is the fleet-exact host-tier share of all prefill
	// work: Σ restored tokens over Σ (cached + computed) prompt
	// tokens across replicas — the tier counterpart of HitRate.
	TierHitRate float64
	// RestoredTokens and RecomputedTokens sum the per-replica tier
	// restores and the recompute waste; SwapOuts/SwapIns sum the
	// fleet's page/block transfers.
	RestoredTokens, RecomputedTokens int64
	SwapOuts, SwapIns                int64
	// P99Restore is the p99 per-request PCIe restore time over every
	// finished request in the fleet.
	P99Restore time.Duration
	// CachedPromptTokens and ComputedPromptTokens are HitRate's exact
	// numerator and computed remainder summed across replicas —
	// exported so fleet experiments can compare recompute volumes
	// directly instead of back-deriving them from ratios.
	CachedPromptTokens, ComputedPromptTokens int64
	// PeerHits counts fleet-store fetches that extended a replica's
	// local prefix from a peer's host tier; PeerTokens is the prefix
	// length they added, PeerBytes the peer-link wire volume (fetches
	// plus migration moves), and PeerHitRate the peer-served share of
	// all prefill work (the fleet-store counterpart of TierHitRate).
	PeerHits    int
	PeerTokens  int64
	PeerBytes   int64
	PeerHitRate float64
	// Migrations counts live request migrations completed fleet-wide
	// (the sum of per-replica MigratedIn).
	Migrations int
	// Crashes and Restarts count the chaos plan's replica failures
	// applied during the run; Redispatched is how many in-flight
	// requests from crashed replicas were recovered onto survivors,
	// LostRequests how many died with their replica (recovery off, or
	// no survivor to take them).
	Crashes, Restarts int
	Redispatched      int
	LostRequests      int
	// DirInvalidations counts fleet-directory entries dropped by crash
	// recovery; MigrationRollbacks counts migrations that faulted
	// mid-transfer and rolled back to their source replica.
	DirInvalidations   int
	MigrationRollbacks int
	// FetchRetries, FetchFailures and FetchSkips are the fleet store's
	// peer-transfer outcome counts for this run (zero without the
	// store): retried attempts, holder batches that exhausted the
	// retry bound, and batches skipped before any transfer.
	FetchRetries, FetchFailures, FetchSkips int64
	// PerReplica holds each replica's share, indexed by replica.
	PerReplica []ReplicaResult
}

// Cluster owns N engine replicas and a router. Serve may be called
// repeatedly (replica caches stay warm across calls) but is not safe
// for concurrent use.
type Cluster struct {
	cfg     Config
	router  Router
	engines []*engine.Engine
	// managers holds each replica's manager (same index as engines) —
	// crash recovery needs the core.Crasher surface to cold-restart a
	// replica's memory behind the engine's back.
	managers []core.Manager
	// store is the fleet-wide KV store (nil unless Config.Fleet.Store
	// is on): one prefix directory spanning every replica's host tier
	// plus the peer-transfer path (see internal/fleet).
	store *fleet.Store
	// drainRate is the nominal per-replica serving rate (tokens per
	// simulated second) used to decay Load.Outstanding between
	// arrivals: the cost model's compute-bound token rate.
	drainRate float64
}

// New validates the config and builds the replicas.
func New(cfg Config) (*Cluster, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("cluster: model spec is required")
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 replica, got %d", cfg.Replicas)
	}
	if cfg.Device.Name == "" {
		cfg.Device = gpu.H100()
	}
	newMgr := cfg.NewManager
	if newMgr == nil {
		capacity := cfg.CapacityBytes
		if capacity == 0 {
			budget, err := gpu.KVBudget(cfg.Spec, cfg.Device, 0)
			if err != nil {
				return nil, err
			}
			capacity = budget
		}
		newMgr = func(int) (core.Manager, error) {
			return core.New(core.Config{
				Spec:              cfg.Spec,
				CapacityBytes:     capacity,
				EnablePrefixCache: true,
				RequestAware:      true,
				HostTierBytes:     cfg.HostTierBytes,
			})
		}
	}
	router := cfg.Router
	if router == nil {
		var err error
		router, err = NewRouter(cfg.Policy, cfg.Replicas, cfg.AffinityPrefixTokens, cfg.VNodes)
		if err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, router: router}
	managers := make([]core.Manager, 0, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		mgr, err := newMgr(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d manager: %w", i, err)
		}
		managers = append(managers, mgr)
		scheduler := cfg.Scheduler
		if cfg.NewScheduler != nil {
			if s := cfg.NewScheduler(i); s != nil {
				scheduler = s
			}
		}
		var faults engine.FaultInjector
		if cfg.Chaos.Plan != nil {
			faults = &replicaFaults{plan: cfg.Chaos.Plan, replica: i}
		}
		eng, err := engine.New(engine.Config{
			Spec:           cfg.Spec,
			Device:         cfg.Device,
			Manager:        mgr,
			MaxBatchTokens: cfg.MaxBatchTokens,
			MaxRunning:     cfg.MaxRunning,
			MaxPrefills:    cfg.MaxPrefills,
			Admission:      cfg.Admission,
			Scheduler:      scheduler,
			PreemptMode:    cfg.PreemptMode,
			Faults:         faults,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d engine: %w", i, err)
		}
		if cfg.EventSink != nil {
			sink, replica := cfg.EventSink, i
			eng.SetEventSink(func(ev engine.Event) { sink(replica, ev) })
		}
		c.engines = append(c.engines, eng)
	}
	c.managers = managers
	c.attachFleet(managers)
	// 2 FLOPs per active parameter per token, compute-bound: the same
	// first-order term the cost model charges per scheduled token.
	if f := cfg.Device.FLOPS; f > 0 {
		c.drainRate = f / (2 * float64(cfg.Spec.ActiveParamCount()))
	}
	return c, nil
}

// Router returns the active router (tests and diagnostics).
func (c *Cluster) Router() Router { return c.router }

// Route partitions a request stream across replicas in arrival order
// without running it, returning one slice per replica. Exposed so
// tests and tools can inspect placement; Serve places through the same
// helper. Stateful built-in routers are reset at the start of every
// pass, so placement is a pure function of the stream and a Route
// followed by Serve sees the identical assignment (a custom stateful
// Router keeps its own state across passes and forfeits that
// guarantee).
func (c *Cluster) Route(reqs []workload.Request) [][]workload.Request {
	p := c.newPlacer()
	assigned := make([][]workload.Request, len(c.engines))
	stream := byArrival(reqs)
	for i := range stream {
		r := &stream[i]
		rep := p.place(r)
		p.account(rep, r)
		assigned[rep] = append(assigned[rep], *r)
	}
	return assigned
}

// byArrival returns a copy of reqs stably sorted by arrival time.
func byArrival(reqs []workload.Request) []workload.Request {
	stream := append([]workload.Request(nil), reqs...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	return stream
}

// placer is the router-side placement state Route and the serve loop
// share: the per-replica loads, their drained-estimate decay, the
// router call with its clamp, and the load accounting.
type placer struct {
	router    Router
	drainRate float64
	loads     []Load
	last      time.Duration
}

// newPlacer resets a stateful built-in router and starts every
// replica's load at zero.
func (c *Cluster) newPlacer() *placer {
	if r, ok := c.router.(resettable); ok {
		r.reset()
	}
	loads := make([]Load, len(c.engines))
	for i := range loads {
		loads[i].Replica = i
	}
	return &placer{router: c.router, drainRate: c.drainRate, loads: loads}
}

// place drains every replica's Outstanding estimate at the nominal
// serving rate up to r's arrival, then asks the router for a replica.
func (p *placer) place(r *workload.Request) int {
	if dt := (r.Arrival - p.last).Seconds(); dt > 0 && p.drainRate > 0 {
		for j := range p.loads {
			p.loads[j].Outstanding -= p.drainRate * dt
			if p.loads[j].Outstanding < 0 {
				p.loads[j].Outstanding = 0
			}
		}
	}
	p.last = r.Arrival
	rep := p.router.Route(r, p.loads)
	if rep < 0 || rep >= len(p.loads) {
		rep = 0 // defensive: a broken custom router must not panic the run
	}
	return rep
}

// account charges r's work to replica rep. Over a live snapshot it
// also adds optimistic deltas: a snapshot can't see work routed after
// it, so without them a load-aware router would send every arrival
// until the next barrier to whichever replica the last snapshot
// showed coolest. The next barrier overwrites both with measured
// values.
func (p *placer) account(rep int, r *workload.Request) {
	work := int64(len(r.Prompt) + r.OutputLen)
	l := &p.loads[rep]
	l.Requests++
	l.RoutedTokens += work
	l.Outstanding += float64(work)
	if l.Live {
		l.OutstandingTokens += work
		l.QueueDepth++
	}
}

// Serve routes the request stream and runs every replica to completion,
// one shard goroutine per replica, then aggregates the fleet result.
// It is the serve loop without load snapshots: routers see only the
// drained estimates (Load.Live stays false), so placement is exactly
// what Route returns, and each replica's engine is deterministic on
// its share.
func (c *Cluster) Serve(reqs []workload.Request) (*Result, error) {
	return c.drive(workload.SliceSource(byArrival(reqs)), len(c.engines), defaultMailbox, noBarriers, false)
}

// ServeOnline drives the fleet as an online event-driven system in
// simulated time: it is the serve loop with one shard per replica and
// a barrier at every arrival. Every replica is advanced to the
// arrival instant, the router places the request against the
// replicas' live state — measured KV usage, queue depth and
// outstanding work, not Serve's drained estimates — and the request
// is submitted to the chosen replica, where its admission policy may
// still shed it. It is the serial reference ServeStream is checked
// against.
//
// When a chaos plan is attached (Config.Chaos), every crash and
// restart is applied at its exact instant, at a barrier of its own
// before the next arrival, so the schedule is reproducible to the
// step. Degrade and straggler windows stretch the affected replica's
// steps through the engine's fault hook, routing falls over from dead
// and sick replicas, and with Chaos.Recover the crashed replicas'
// requests re-dispatch to survivors.
func (c *Cluster) ServeOnline(reqs []workload.Request) (*Result, error) {
	return c.drive(workload.SliceSource(byArrival(reqs)), len(c.engines), defaultMailbox, 0, true)
}

// aggregate folds the engines' results and the merged retirement
// record into the fleet view.
func (c *Cluster) aggregate(loads []Load, acc *retireAcc, routedGroups map[int64]int) *Result {
	out := &Result{
		Policy:   c.router.Name(),
		Replicas: len(c.engines),
	}
	var cached, computed, generated, restored int64
	shares := make([]float64, len(c.engines))
	for i, e := range c.engines {
		res := e.ResultSnapshot()
		shares[i] = float64(loads[i].RoutedTokens)
		out.PerReplica = append(out.PerReplica, ReplicaResult{
			Replica:      i,
			Requests:     loads[i].Requests,
			RoutedTokens: loads[i].RoutedTokens,
			Result:       res,
		})
		out.Finished += res.Finished
		out.Failed += res.Failed
		out.Shed += res.Shed
		if res.Duration > out.Duration {
			out.Duration = res.Duration
		}
		cached += res.CachedPromptTokens
		computed += res.ComputedPromptTokens
		generated += res.GeneratedTokens
		restored += res.RestoredTokens
		out.RestoredTokens += res.RestoredTokens
		out.RecomputedTokens += res.RecomputedTokens
		out.SwapOuts += res.SwapOuts
		out.SwapIns += res.SwapIns
		out.PeerHits += res.PeerHits
		out.PeerTokens += res.PeerTokens
		out.PeerBytes += res.PeerBytes
		out.Migrations += res.MigratedIn
		out.MeanKVUtil += res.MeanKVUtil
	}
	// Cross-replica fairness and starvation over prefix groups. Sorted
	// traversal keeps the float accumulation order (and so Jain's
	// rounding) identical across runs.
	groupTokens := make([]float64, 0, len(acc.groups))
	for _, g := range detmap.Sorted(acc.groups) {
		groupTokens = append(groupTokens, float64(g.tokens))
		if mean := g.ttftSum / time.Duration(g.finished); mean > out.MaxGroupMeanTTFT {
			out.MaxGroupMeanTTFT = mean
		}
	}
	out.GroupJain = metrics.Jain(groupTokens)
	for g, routed := range routedGroups {
		if routed > 0 && acc.groups[g] == nil {
			out.StarvedGroups++
		}
	}
	if n := len(c.engines); n > 0 {
		out.MeanKVUtil /= float64(n)
	}
	if out.Duration > 0 {
		out.ReqPerSec = float64(out.Finished) / out.Duration.Seconds()
		out.TokensPerSec = float64(computed+generated) / out.Duration.Seconds()
		out.Goodput = metrics.Goodput(acc.deadlineMet, out.Duration)
	}
	if c.cfg.SLOTTFT > 0 {
		out.SLOAttainment = metrics.Attainment(acc.ttft, c.cfg.SLOTTFT)
	} else {
		out.SLOAttainment = metrics.Fraction(acc.deadlineMet, out.Finished)
	}
	out.CachedPromptTokens = cached
	out.ComputedPromptTokens = computed
	if work := cached + computed; work > 0 {
		out.HitRate = float64(cached) / float64(work)
		out.TierHitRate = float64(restored) / float64(work)
		out.PeerHitRate = float64(out.PeerTokens) / float64(work)
	}
	out.P99Restore = metrics.Percentile(acc.restore, 99)
	out.Imbalance = metrics.Imbalance(shares)
	tq := metrics.Percentiles(acc.ttft, 50, 99)
	eq := metrics.Percentiles(acc.e2e, 50, 99)
	out.P50TTFT, out.P99TTFT = tq[0], tq[1]
	out.P50E2E, out.P99E2E = eq[0], eq[1]
	return out
}

// retireAcc folds finished requests as their engines retire them:
// exact TTFT, E2E and restore-time samples (24 B per request), the
// deadline count and per-group sums. Each shard has one, written only
// while the shard's engines run — on the shard goroutine, or on the
// router while the shard is parked at a barrier — and the shards'
// records merge after the drain.
type retireAcc struct {
	ttft, e2e, restore []time.Duration
	deadlineMet        int
	groups             map[int64]*groupAcc
}

// groupAcc is one tenant's served-work accumulator.
type groupAcc struct {
	tokens   int64
	finished int
	ttftSum  time.Duration
}

// observe is the engines' RetireSink: latency fields are meaningful
// only for EventFinished, so every other terminal is left to the
// engines' own counters.
func (a *retireAcc) observe(m engine.RequestMetrics, ev engine.EventType) {
	if ev != engine.EventFinished {
		return
	}
	a.ttft = append(a.ttft, m.TTFT)
	a.e2e = append(a.e2e, m.E2E)
	a.restore = append(a.restore, m.RestoreTime)
	if m.Deadline == 0 || m.E2E <= m.Deadline {
		a.deadlineMet++
	}
	g := a.groups[m.Group]
	if g == nil {
		g = &groupAcc{}
		a.groups[m.Group] = g
	}
	g.tokens += int64(m.Tokens)
	g.finished++
	g.ttftSum += m.TTFT
}

// merge folds o into a. Every field is a sample multiset or an integer
// sum, so the merged record does not depend on the shard order.
func (a *retireAcc) merge(o *retireAcc) {
	a.ttft = append(a.ttft, o.ttft...)
	a.e2e = append(a.e2e, o.e2e...)
	a.restore = append(a.restore, o.restore...)
	a.deadlineMet += o.deadlineMet
	for id, og := range o.groups {
		g := a.groups[id]
		if g == nil {
			g = &groupAcc{}
			a.groups[id] = g
		}
		g.tokens += og.tokens
		g.finished += og.finished
		g.ttftSum += og.ttftSum
	}
}
