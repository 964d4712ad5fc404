package cluster

import (
	"sync"
	"testing"
	"time"

	"jenga/internal/engine"
	"jenga/internal/workload"
)

// eventLedger is a goroutine-safe EventSink recording, per request,
// the terminal events and sheds seen fleet-wide. The serve loop's
// shard goroutines invoke the sink concurrently, so the ledger locks.
type eventLedger struct {
	mu        sync.Mutex
	terminals map[int64]int
	migrated  map[int64]int
	shedBy    map[int]int // replica → sheds
}

func newEventLedger() *eventLedger {
	return &eventLedger{
		terminals: make(map[int64]int),
		migrated:  make(map[int64]int),
		shedBy:    make(map[int]int),
	}
}

func (l *eventLedger) sink(replica int, ev engine.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Type.Terminal() {
		l.terminals[ev.ID]++
	}
	switch ev.Type {
	case engine.EventMigrated:
		l.migrated[ev.ID]++
	case engine.EventShed:
		l.shedBy[replica]++
	}
}

// checkTerminalOnce asserts every request in reqs reached exactly one
// terminal event across the whole fleet — the stream contract live
// migration must preserve (EventMigrated is a hand-off, not an end).
func (l *eventLedger) checkTerminalOnce(t *testing.T, reqs []workload.Request) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range reqs {
		if n := l.terminals[r.ID]; n != 1 {
			t.Fatalf("request %d saw %d terminal events, want exactly 1", r.ID, n)
		}
	}
	if len(l.terminals) != len(reqs) {
		t.Fatalf("%d requests terminated, want %d", len(l.terminals), len(reqs))
	}
}

// drainCluster builds a fleet whose tail replica is drained mid-stream.
func drainCluster(t *testing.T, ledger *eventLedger, migrate bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Spec: testSpec(), Replicas: 3, Policy: LeastLoaded,
		CapacityBytes: perReplicaCapacity,
		HostTierBytes: 64 << 20,
		PreemptMode:   engine.PreemptSwap,
		Fleet: FleetPolicy{
			Migrate:    migrate,
			DrainAfter: 100 * time.Millisecond,
		},
		EventSink: ledger.sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeOnlineDrainMigrates: with migration on, a draining replica
// sheds nothing — every in-flight request moves to a survivor and
// still reaches exactly one terminal event.
func TestServeOnlineDrainMigrates(t *testing.T) {
	ledger := newEventLedger()
	c := drainCluster(t, ledger, true)
	reqs := onlineWorkload(41, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 {
		t.Fatalf("drain shed %d requests with migration on, want 0", res.Shed)
	}
	if res.Migrations == 0 {
		t.Fatal("drain at 100ms into a 300 req/s stream migrated nothing")
	}
	if res.Finished+res.Failed != len(reqs) {
		t.Fatalf("finished %d + failed %d != %d", res.Finished, res.Failed, len(reqs))
	}
	ledger.checkTerminalOnce(t, reqs)
	if len(ledger.migrated) == 0 {
		t.Fatal("no EventMigrated reached the sink")
	}
	// The drained tail replica stops taking new work: everything it
	// routed arrived before the drain instant.
	tail := res.PerReplica[len(res.PerReplica)-1]
	for _, pr := range res.PerReplica[:len(res.PerReplica)-1] {
		if tail.Requests >= pr.Requests {
			t.Fatalf("drained replica kept %d requests vs survivor %d — drain did not stick",
				tail.Requests, pr.Requests)
		}
	}
}

// TestServeOnlineDrainShedsWithoutMigration: the same drain with
// migration off falls back to shedding — and the shed events come from
// the draining replica, still exactly one terminal event per request.
func TestServeOnlineDrainShedsWithoutMigration(t *testing.T) {
	ledger := newEventLedger()
	c := drainCluster(t, ledger, false)
	reqs := onlineWorkload(41, 0)
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("drain without migration shed nothing")
	}
	if res.Migrations != 0 {
		t.Fatalf("migrations %d with migration off, want 0", res.Migrations)
	}
	if res.Finished+res.Failed+res.Shed != len(reqs) {
		t.Fatalf("accounting broken: %d+%d+%d != %d", res.Finished, res.Failed, res.Shed, len(reqs))
	}
	ledger.checkTerminalOnce(t, reqs)
	for rep, n := range ledger.shedBy {
		if rep != 2 {
			t.Fatalf("replica %d shed %d requests; only the drained tail (2) may shed", rep, n)
		}
	}
}

// hotspotRouter pins every request to replica 0, manufacturing the
// imbalance the rebalancer must repair.
type hotspotRouter struct{}

func (hotspotRouter) Name() string                                      { return "hotspot" }
func (hotspotRouter) Route(_ *workload.Request, _ []Load) (replica int) { return 0 }

// TestServeOnlineRebalance: with an imbalance threshold set, the fleet
// moves work off the manufactured hotspot; without it, nothing moves.
func TestServeOnlineRebalance(t *testing.T) {
	run := func(thr float64) *Result {
		c, err := New(Config{
			Spec: testSpec(), Replicas: 3, Router: hotspotRouter{},
			CapacityBytes: perReplicaCapacity,
			HostTierBytes: 64 << 20,
			PreemptMode:   engine.PreemptSwap,
			Fleet:         FleetPolicy{Migrate: true, ImbalanceThreshold: thr},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ServeOnline(onlineWorkload(43, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	balanced := run(1.5)
	if balanced.Migrations == 0 {
		t.Fatal("hotspot router triggered no rebalancing migrations")
	}
	static := run(0)
	if static.Migrations != 0 {
		t.Fatalf("migrations %d with rebalancing off, want 0", static.Migrations)
	}
	if balanced.Shed != 0 || static.Shed != 0 {
		t.Fatalf("rebalancing shed work: %d/%d", balanced.Shed, static.Shed)
	}
}

// churnStream is the replica-churn workload: group popularity phase-
// shifts through the stream, so each replica keeps seeing prefixes
// that some *other* replica computed during an earlier phase.
func churnStream(seed int64) []workload.Request {
	gen := workload.NewGen(seed)
	reqs := gen.ChurnGroups(12, 10, 512, 48, 4)
	gen.PoissonArrivals(reqs, 300)
	return reqs
}

// TestFleetStoreImprovesChurn is the fleet store's acceptance anchor
// at test scale: under replica churn with cache pressure, turning the
// store on must produce peer hits and cut computed prompt work versus
// local recompute — same workload, same routing.
func TestFleetStoreImprovesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn comparison (seconds of simulation); run without -short")
	}
	run := func(store bool) *Result {
		c, err := New(Config{
			Spec: testSpec(), Replicas: 3, Policy: RoundRobin,
			CapacityBytes: 2 << 20, // ~2 of the 12 × 512-token prefixes
			HostTierBytes: 64 << 20,
			PreemptMode:   engine.PreemptSwap,
			Fleet:         FleetPolicy{Store: store},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ServeOnline(churnStream(47))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(false)
	fleet := run(true)
	if local.PeerHits != 0 || local.PeerBytes != 0 {
		t.Fatalf("store off but peer traffic flowed: %+v", local)
	}
	if fleet.PeerHits == 0 || fleet.PeerBytes == 0 || fleet.PeerHitRate <= 0 {
		t.Fatalf("store on but no peer hits: hits=%d bytes=%d rate=%f",
			fleet.PeerHits, fleet.PeerBytes, fleet.PeerHitRate)
	}
	if fleet.HitRate <= local.HitRate {
		t.Errorf("fleet hit rate %.3f not above local %.3f", fleet.HitRate, local.HitRate)
	}
	if fleet.ComputedPromptTokens >= local.ComputedPromptTokens {
		t.Errorf("fleet computed %d prompt tokens, local %d — peer pages did not pay",
			fleet.ComputedPromptTokens, local.ComputedPromptTokens)
	}
	if fleet.Finished == 0 || fleet.Finished+fleet.Failed != local.Finished+local.Failed {
		t.Errorf("request accounting diverged: fleet %d+%d, local %d+%d",
			fleet.Finished, fleet.Failed, local.Finished, local.Failed)
	}
}
