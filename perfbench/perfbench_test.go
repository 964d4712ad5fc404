package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// TestWrapManagerCapabilities checks that a wrapped manager satisfies
// core.TierManager, core.Forker and core.Crasher exactly when the inner
// manager does, for every combination.
func TestWrapManagerCapabilities(t *testing.T) {
	j, err := core.New(core.Config{Spec: model.Gemma2_2B(), CapacityBytes: 64 << 20, EnablePrefixCache: true, RequestAware: true})
	if err != nil {
		t.Fatal(err)
	}
	type tier struct {
		core.Manager
		core.TierManager
	}
	type fork struct {
		core.Manager
		core.Forker
	}
	type crash struct {
		core.Manager
		core.Crasher
	}
	type tierFork struct {
		core.Manager
		core.TierManager
		core.Forker
	}
	type tierCrash struct {
		core.Manager
		core.TierManager
		core.Crasher
	}
	type forkCrash struct {
		core.Manager
		core.Forker
		core.Crasher
	}
	inners := []core.Manager{
		struct{ core.Manager }{j},
		tier{j, j}, fork{j, j}, crash{j, j},
		tierFork{j, j, j}, tierCrash{j, j, j}, forkCrash{j, j, j},
		j,
	}
	for _, in := range inners {
		w := wrapManager(in, &lane{})
		for _, c := range []struct {
			name      string
			has, want bool
		}{
			{"TierManager", is[core.TierManager](w), is[core.TierManager](in)},
			{"Forker", is[core.Forker](w), is[core.Forker](in)},
			{"Crasher", is[core.Crasher](w), is[core.Crasher](in)},
		} {
			if c.has != c.want {
				t.Errorf("%T: wrapped has %s = %v, inner %v", in, c.name, c.has, c.want)
			}
		}
	}
}

// TestWrapSchedulerPreempter checks that the scheduler wrapper
// forwards sched.AdmissionPreempter exactly when the inner policy has
// it: the engine skips admission-time preemption on its answer.
func TestWrapSchedulerPreempter(t *testing.T) {
	for _, in := range []sched.Scheduler{sched.NewFCFS(), sched.NewPriority(), struct{ sched.Scheduler }{sched.NewFCFS()}} {
		w := wrapScheduler(in, &lane{})
		if is[sched.AdmissionPreempter](w) != is[sched.AdmissionPreempter](in) {
			t.Errorf("%T: wrapper AdmissionPreempter %v", in, is[sched.AdmissionPreempter](w))
		}
		if sched.CanAdmissionPreempt(w) != sched.CanAdmissionPreempt(in) {
			t.Errorf("%T: wrapper CanAdmissionPreempt differs", in)
		}
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestExplicitFactoriesMatchDefault checks that the benchmark's
// explicit manager factory and router reproduce cluster.New's defaults
// bit for bit.
func TestExplicitFactoriesMatchDefault(t *testing.T) {
	spec := model.Gemma2_2B()
	reqs := workload.NewGen(7).PrefixGroups(8, 40, 512, 32)
	workload.NewGen(8).PoissonArrivals(reqs, 200)
	for _, policy := range []cluster.RouterPolicy{cluster.PrefixAffinity, cluster.LeastLoaded, cluster.RoundRobin} {
		def := cluster.Config{Spec: spec, Replicas: 3, Policy: policy, CapacityBytes: 256 << 20}
		want := serveOnline(t, def, reqs)
		explicit, err := baseConfig(spec, 3, 256<<20, 0, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		explicit.NewScheduler = nil
		got := serveOnline(t, explicit, reqs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: explicit factories give a different result:\n got %+v\nwant %+v", policy, got, want)
		}
	}
}

func serveOnline(t *testing.T, cfg cluster.Config, reqs []workload.Request) *cluster.Result {
	t.Helper()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestManagerFactoryDefaultsCapacity pins the default KV budget.
func TestManagerFactoryDefaultsCapacity(t *testing.T) {
	spec := model.Gemma2_2B()
	newMgr, err := newManagerFactory(spec, gpu.H100(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMgr(0)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := gpu.KVBudget(spec, gpu.H100(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() > budget || m.Capacity() < budget*9/10 {
		t.Errorf("capacity %d, device budget %d", m.Capacity(), budget)
	}
}

// TestPrefixStreamShardInvariant checks that prefix-stream's simulated
// metrics are the same at one shard and at two.
func TestPrefixStreamShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("serves the full prefix-stream workload twice")
	}
	w, err := workloadByName("prefix-stream")
	if err != nil {
		t.Fatal(err)
	}
	one, err := runPass(w, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runPass(w, 3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(one.problems, two.problems...) {
		t.Error(p)
	}
	if !sameMetrics(one.sim.metrics, two.sim.metrics) {
		t.Errorf("1 shard %v\n2 shards %v", one.sim.metrics, two.sim.metrics)
	}
}

// TestTracedPassMatchesUntraced checks that the traced pass reproduces
// every simulated metric on the workload whose managers use the host
// tier, the fleet store and crash reset.
func TestTracedPassMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("serves churn-chaos twice")
	}
	w, err := workloadByName("churn-chaos")
	if err != nil {
		t.Fatal(err)
	}
	r := measure(w, 5, 2, time.Nanosecond, true)
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, p := range r.problems {
		t.Error(p)
	}
	if r.metrics["chaos.redispatched"] == 0 || r.metrics["core.tier_calls"] == 0 {
		t.Errorf("churn-chaos did not exercise recovery and the tier: %v", r.metrics)
	}
}

// TestMetricNames checks every metric against the name and unit
// grammar and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(defs) != len(listed) {
			t.Errorf("%d metrics defined, %d in BENCHMARK.json", len(defs), len(listed))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q unit %q breaks the grammar", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
			better := "lower"
			if d.higherBetter {
				better = "higher"
			}
			if i < len(listed) && (listed[i].Name != d.name || listed[i].Unit != d.unit || listed[i].Better != better) {
				t.Errorf("BENCHMARK.json has %+v, want %s %s %s", listed[i], d.name, d.unit, better)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check(endToEnd, e2e)
	check(perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads defined, %d in BENCHMARK.json", len(workloads), len(bench.Workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.name) || bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %q: BENCHMARK.json has %+v", w.name, bench.Workloads[i])
		}
	}
}

// TestPercentileSuppression checks that a p99 is reported only with at
// least ten samples beyond it.
func TestPercentileSuppression(t *testing.T) {
	for _, c := range []struct {
		n, p   int
		beyond int
		ok     bool
	}{
		{999, 99, 9, false},
		{1000, 99, 10, true},
		{5000, 99, 50, true},
		{1, 50, 0, true},
		{0, 50, 0, false},
	} {
		xs := make([]time.Duration, c.n)
		for i := range xs {
			xs[i] = time.Duration(i + 1)
		}
		v, beyond, ok := percentile(xs, c.p)
		if beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d p%d: beyond %d ok %v, want %d %v", c.n, c.p, beyond, ok, c.beyond, c.ok)
		}
		if ok && int(v) != c.n-c.beyond {
			t.Errorf("n=%d p%d = %v, want rank %d", c.n, c.p, v, c.n-c.beyond)
		}
	}
}
