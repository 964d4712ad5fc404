package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// streamWorkload builds a monotone-arrival online stream (ServeStream
// requires non-decreasing arrivals, so no jitter here).
func streamWorkload(seed int64, deadline time.Duration) []workload.Request {
	gen := workload.NewGen(seed)
	reqs := gen.PrefixGroups(15, 12, 512, 48)
	gen.PoissonArrivals(reqs, 300)
	if deadline > 0 {
		workload.SetDeadlines(reqs, deadline)
	}
	return reqs
}

func streamCluster(t *testing.T, replicas int, policy RouterPolicy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Spec: testSpec(), Replicas: replicas, Policy: policy,
		CapacityBytes: perReplicaCapacity,
		SLOTTFT:       500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	lim := relTol * want
	if lim < 0 {
		lim = -lim
	}
	if d > lim {
		t.Errorf("%s: stream %v vs serial %v (beyond %.0f%%)", name, got, want, relTol*100)
	}
}

// sameResult fails the test for every Result field on which got and
// want differ; per-replica engine results are compared in full.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < gv.NumField(); i++ {
		field := gv.Type().Field(i).Name
		if field == "PerReplica" {
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s: %v vs %v", name, field, g, w)
		}
	}
	if len(got.PerReplica) != len(want.PerReplica) {
		t.Fatalf("%s: %d vs %d replicas", name, len(got.PerReplica), len(want.PerReplica))
	}
	for i := range got.PerReplica {
		g, w := got.PerReplica[i], want.PerReplica[i]
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: replica %d: %d reqs %d tokens %+v\nvs %d reqs %d tokens %+v",
				name, i, g.Requests, g.RoutedTokens, *g.Result, w.Requests, w.RoutedTokens, *w.Result)
		}
	}
}

// With a load-oblivious router every path routes identically, so
// Serve, ServeStream and ServeOnline must agree in every Result field,
// the exact percentiles included.
func TestServeStreamMatchesServeOnlineAffinity(t *testing.T) {
	reqs := streamWorkload(11, time.Second)
	serial, err := streamCluster(t, 4, PrefixAffinity).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamCluster(t, 4, PrefixAffinity).ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := streamCluster(t, 4, PrefixAffinity).Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Finished == 0 {
		t.Fatal("serial run finished nothing")
	}
	sameResult(t, "stream vs serial", stream, serial)
	sameResult(t, "batch vs serial", batch, serial)
}

// The conservative-horizon protocol makes the run a pure function of
// the workload and config: any shard count, same result — for
// load-aware routers too, since snapshots are published at exact
// epoch instants.
func TestServeStreamShardCountInvariant(t *testing.T) {
	reqs := streamWorkload(5, time.Second)
	run := func(shards int, policy RouterPolicy) *Result {
		res, err := streamCluster(t, 4, policy).ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, policy := range []RouterPolicy{LeastLoaded, PrefixAffinity} {
		base := run(1, policy)
		for _, shards := range []int{2, 4, 7} { // 7 clamps to the replica count
			got := run(shards, policy)
			if got.Finished != base.Finished || got.Duration != base.Duration ||
				got.HitRate != base.HitRate || got.P99TTFT != base.P99TTFT ||
				got.P99E2E != base.P99E2E || got.Imbalance != base.Imbalance ||
				got.Goodput != base.Goodput || got.SLOAttainment != base.SLOAttainment {
				t.Errorf("policy %v shards %d diverged:\n%+v\nvs shards=1\n%+v", policy, shards, got, base)
			}
			for i := range base.PerReplica {
				if got.PerReplica[i].Requests != base.PerReplica[i].Requests {
					t.Errorf("policy %v shards %d replica %d routed %d, shards=1 routed %d",
						policy, shards, i, got.PerReplica[i].Requests, base.PerReplica[i].Requests)
				}
			}
		}
	}
}

// Load-aware routing over epoch-stale snapshots must stay
// statistically close to the serial per-arrival path.
func TestServeStreamLeastLoadedEquivalence(t *testing.T) {
	reqs := streamWorkload(23, time.Second)
	serial, err := streamCluster(t, 4, LeastLoaded).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := streamCluster(t, 4, LeastLoaded).ServeStream(workload.SliceSource(reqs),
		StreamConfig{Shards: 4, SnapshotEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Finished+stream.Failed+stream.Shed != len(reqs) {
		t.Fatalf("terminal counts %d+%d+%d != %d", stream.Finished, stream.Failed, stream.Shed, len(reqs))
	}
	within(t, "finished", float64(stream.Finished), float64(serial.Finished), 0.02)
	within(t, "hit rate", stream.HitRate, serial.HitRate, 0.15)
	within(t, "goodput", stream.Goodput, serial.Goodput, 0.05)
	within(t, "p99 TTFT", float64(stream.P99TTFT), float64(serial.P99TTFT), 0.25)
	within(t, "imbalance", stream.Imbalance, serial.Imbalance, 0.10)
}

// A cluster is reusable across streamed and serial passes: a
// streamed pass leaves the replicas exactly as a serial pass does, so
// a warm ServeOnline after it matches the warm second pass of a fresh
// cluster that ran ServeOnline twice.
func TestServeStreamThenServeOnline(t *testing.T) {
	reqs := streamWorkload(9, 0)
	c := streamCluster(t, 3, PrefixAffinity)
	if _, err := c.ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	second, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := streamCluster(t, 3, PrefixAffinity)
	if _, err := fresh.ServeOnline(reqs); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Finished == 0 {
		t.Fatal("warm pass finished nothing")
	}
	sameResult(t, "warm pass after stream vs after serial", second, want)
}

// fleetChaosCluster is a four-replica fleet with every fleet mechanism
// and a chaos plan: replica 1 crashes and restarts cold, replica 2
// runs degraded, peer transfers and migrations fault, recovery is on,
// and replica 3 drains out late in the stream.
func fleetChaosCluster(t *testing.T, span time.Duration) *Cluster {
	t.Helper()
	plan := chaos.NewPlan(3).
		Crash(1, span*2/5).
		Restart(1, span*3/5).
		Degrade(2, span/5, span/2, 0.25, 0.5)
	plan.FetchFailRate = 0.3
	plan.MigrateFailRate = 0.2
	c, err := New(Config{
		Spec: testSpec(), Replicas: 4, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		HostTierBytes: 64 << 20,
		PreemptMode:   engine.PreemptSwap,
		SLOTTFT:       500 * time.Millisecond,
		Fleet: FleetPolicy{
			Store: true, Migrate: true,
			ImbalanceThreshold: 1.5,
			DrainAfter:         span * 4 / 5,
		},
		Chaos: ChaosPolicy{Plan: plan, Recover: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A chaos plan or a fleet mechanism makes ServeStream take a barrier
// at every arrival, where crashes, restarts, drains, migrations and
// peer fetches act on parked shards: the result must equal ServeOnline
// in every field at any shard count, for a load-aware router too.
// Not skipped under -short, so the race pass covers the barrier
// hand-off.
func TestServeStreamFleetChaosMatchesServeOnline(t *testing.T) {
	reqs := churnStream(47)
	first, last := workload.Span(reqs)
	span := last - first
	serial, err := fleetChaosCluster(t, span).ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Crashes != 1 || serial.Restarts != 1 || serial.Redispatched == 0 ||
		serial.Migrations == 0 || serial.MigrationRollbacks == 0 ||
		serial.PeerHits == 0 || serial.FetchRetries == 0 {
		t.Fatalf("plan did not exercise the fleet and chaos paths: %+v", *serial)
	}
	for _, shards := range []int{1, 2, 4} {
		stream, err := fleetChaosCluster(t, span).ServeStream(workload.SliceSource(reqs), StreamConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("shards %d", shards), stream, serial)
	}
}

// Out-of-order arrivals are a caller bug the router reports rather
// than silently misroutes.
func TestServeStreamRejectsNonMonotoneArrivals(t *testing.T) {
	reqs := streamWorkload(2, 0)
	reqs[1].Arrival = reqs[0].Arrival - time.Millisecond
	if _, err := streamCluster(t, 2, PrefixAffinity).ServeStream(workload.SliceSource(reqs[:3]), StreamConfig{}); err == nil {
		t.Fatal("decreasing arrivals must be rejected")
	}
}
