package main

import (
	"fmt"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// workloadSpec is one named benchmark workload: the traffic mix, the
// fleet that serves it and the latency limits its SLO metrics use.
type workloadSpec struct {
	name string
	// why is the one-sentence reason the workload exists (it is also
	// the workload's "why" in BENCHMARK.json).
	why string
	// plan builds the workload's cluster config and request source for
	// one pass. It must be a pure function of seed and shards.
	plan func(seed int64, shards int) (*plan, error)
}

// plan is one pass's inputs. The pass runner instruments cfg's hooks
// and the source in the traced pass, then materializes the source
// (online workloads) or streams it (streamed workloads).
type plan struct {
	cfg    cluster.Config
	source workload.Source
	// stream selects ServeStream with shards event loops; otherwise the
	// source is collected and served through ServeOnline.
	stream bool
	shards int
	// deadline is the end-to-end limit every request carries (0: none).
	// sim_goodput_per_s requires it and cfg.SLOTTFT, the TTFT limit
	// slo_attainment also uses.
	deadline time.Duration
	// finish completes cfg once the materialized requests are known
	// (the chaos plan is anchored to the arrival span); may be nil.
	finish func(cfg *cluster.Config, reqs []workload.Request)
}

var workloads = []workloadSpec{
	{
		name: "prefix-stream",
		why:  "Open loop, 1200 req/s over 64 shared 1024-token prefixes on 16 replicas, streamed: prefix hashing, claim and affinity routing dominate and the prefix cache is used.",
		plan: prefixStream,
	},
	{
		name: "pressure-online",
		why:  "Open loop, 10 req/s of unshared chat prompts plus fan-out roots on 4 replicas with 1 GiB KV: eviction, swap, preemption and copy-on-write run; the prefix cache is bypassed.",
		plan: pressureOnline,
	},
	{
		name: "churn-chaos",
		why:  "Open loop, 35 req/s of churning 1024-token prefixes on 4 replicas with a fleet store, transfer faults, a crash, a restart and a drain: core writes and the serial serve loop.",
		plan: churnChaos,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// newManagerFactory is the manager cluster.New builds when
// Config.NewManager is nil, spelled out so the traced pass can wrap
// it: a Jenga manager with prefix caching and request-aware placement
// on capacity bytes (0: the device's KV budget for spec).
func newManagerFactory(spec *model.Spec, dev gpu.Device, capacity, hostTier int64) (func(int) (core.Manager, error), error) {
	if capacity == 0 {
		budget, err := gpu.KVBudget(spec, dev, 0)
		if err != nil {
			return nil, err
		}
		capacity = budget
	}
	return func(int) (core.Manager, error) {
		return core.New(core.Config{
			Spec:              spec,
			CapacityBytes:     capacity,
			EnablePrefixCache: true,
			RequestAware:      true,
			HostTierBytes:     hostTier,
		})
	}, nil
}

// baseConfig fills the hooks every workload sets explicitly: the
// manager factory, the router and a per-replica scheduler.
func baseConfig(spec *model.Spec, replicas int, capacity, hostTier int64, policy cluster.RouterPolicy, newSched func() sched.Scheduler) (cluster.Config, error) {
	dev := gpu.H100()
	newMgr, err := newManagerFactory(spec, dev, capacity, hostTier)
	if err != nil {
		return cluster.Config{}, err
	}
	router, err := cluster.NewRouter(policy, replicas, 0, 0)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Spec:         spec,
		Device:       dev,
		Replicas:     replicas,
		NewManager:   newMgr,
		Router:       router,
		NewScheduler: func(int) sched.Scheduler { return newSched() },
	}, nil
}

func prefixStream(seed int64, shards int) (*plan, error) {
	const (
		requests  = 60_000
		groups    = 64
		prefixLen = 1024
		suffixLen = 48
		rate      = 1200
	)
	cfg, err := baseConfig(model.Gemma2_2B(), 16, 0, 0, cluster.PrefixAffinity, sched.NewFCFS)
	if err != nil {
		return nil, err
	}
	// Overload protection only: with the full KV budget it never sheds
	// at this rate, but every arrival passes the admission layer.
	cfg.Admission = engine.KVAdmission{}
	cfg.SLOTTFT = 50 * time.Millisecond
	perGroup := (requests + groups - 1) / groups
	src := workload.NewGen(seed).PrefixGroupsSource(groups, perGroup, prefixLen, suffixLen)
	return &plan{
		cfg:    cfg,
		source: workload.PoissonSource(src, workload.NewGen(seed+1), rate),
		stream: true,
		shards: shards,
	}, nil
}

func pressureOnline(seed int64, _ int) (*plan, error) {
	const (
		chats  = 8000
		roots  = 500
		branch = 4
		// At 20 req/s this fleet runs at the edge of its capacity and
		// the p99 TTFT of one seed says little about the next (1.1 s to
		// 6.9 s over ten seeds); at 10 req/s the same memory paths run
		// and the tail is steady.
		rate = 10.0
		gib  = int64(1) << 30
		// fanIDBase moves fan-out root IDs clear of the chat IDs (both
		// generators count from 1).
		fanIDBase = int64(1) << 32
	)
	cfg, err := baseConfig(model.Gemma2_2B(), 4, gib, 2*gib, cluster.LeastLoaded, sched.NewPriority)
	if err != nil {
		return nil, err
	}
	cfg.PreemptMode = engine.PreemptSwap
	cfg.SLOTTFT = 250 * time.Millisecond
	cfg.Admission, err = engine.ParseAdmission("kv+slo", cfg.SLOTTFT)
	if err != nil {
		return nil, err
	}
	// Two Poisson streams whose rates split the rate by request count,
	// so both span the same simulated interval.
	total := float64(chats + roots)
	chat := workload.PoissonSource(workload.NewGen(seed).ShareGPTSource(chats), workload.NewGen(seed+1), rate*chats/total)
	fan := workload.NewGen(seed+2).FanOutSource(roots, 500, 32, 256, branch)
	fan = workload.Apply(fan, func(r *workload.Request) { r.ID += fanIDBase })
	fan = workload.PoissonSource(fan, workload.NewGen(seed+3), rate*roots/total)
	const deadline = 2 * time.Second
	i := 0
	src := workload.Apply(workload.MergeSources(chat, fan), func(r *workload.Request) {
		r.Priority = i % 2
		r.Deadline = deadline
		i++
	})
	return &plan{cfg: cfg, source: src, deadline: deadline}, nil
}

func churnChaos(seed int64, _ int) (*plan, error) {
	const (
		replicas  = 4
		groups    = 4*replicas - 1
		perGroup  = 400
		prefixLen = 1024
		suffixLen = 128
		phases    = 4
		rate      = 35
		deadline  = 6 * time.Second
		mib       = int64(1) << 20
	)
	cfg, err := baseConfig(model.Gemma2_2B(), replicas, 512*mib, 2048*mib, cluster.RoundRobin, sched.NewFCFS)
	if err != nil {
		return nil, err
	}
	cfg.PreemptMode = engine.PreemptSwap
	cfg.SLOTTFT = 750 * time.Millisecond
	cfg.Admission = engine.KVAdmission{}
	cfg.Fleet = cluster.FleetPolicy{Store: true, Migrate: true}
	src := workload.NewGen(seed).ChurnGroupsSource(groups, perGroup, prefixLen, suffixLen, phases)
	src = workload.DeadlineSource(workload.PoissonSource(src, workload.NewGen(seed+1), rate), deadline)
	return &plan{
		cfg:      cfg,
		source:   src,
		deadline: deadline,
		finish: func(cfg *cluster.Config, reqs []workload.Request) {
			// Round robin sends request i to replica i mod replicas, so
			// an event 1ms after a request reached the last replica
			// finds that request in flight there.
			last := replicas - 1
			justAfter := func(frac float64) time.Duration {
				i := int(frac * float64(len(reqs)))
				for i%replicas != last {
					i++
				}
				return reqs[i].Arrival + time.Millisecond
			}
			// The last replica crashes 40% into the stream (its requests
			// are redispatched), restarts cold at 75% and is drained at
			// 85% (its requests migrate); peer transfers fail 20% of the
			// time.
			first, end := workload.Span(reqs)
			p := chaos.NewPlan(seed).Crash(last, justAfter(0.40)).Restart(last, first+(end-first)*3/4)
			p.FetchFailRate = 0.2
			cfg.Chaos = cluster.ChaosPolicy{Plan: p, Recover: true}
			cfg.Fleet.DrainAfter = justAfter(0.85)
		},
	}, nil
}
