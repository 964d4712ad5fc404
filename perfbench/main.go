// Command perfbench is the repository's benchmark: it serves one named
// workload through internal/cluster for a fixed wall-clock budget,
// checks the outcome and prints every metric by name and unit, ending
// with one JSON line.
//
//	perfbench --workload prefix-stream --seed 1 --seconds 30 --trace 0
//
// The simulator has two clocks. Host metrics (alloc_kb_per_req,
// peak_heap_mb, setup_s, the per-layer _s times and
// host.req_per_cpu_s) are what running the simulator costs on this
// machine; each run reports the median over its passes, and times are
// process CPU time because the wall clock of a shared host includes
// CPU steal. Simulated metrics (sim_*,
// slo_attainment, kv_util_mean, admit_rate, survive_rate) come from the
// internal/gpu roofline cost model, repeat bit for bit for a seed, and
// are not validated against hardware. Arrivals are scheduled on the
// simulated clock, so the open-loop generator cannot fall behind and no
// generator lag is reported.
//
// --trace 0 prints the end-to-end metrics from untraced passes.
// --trace 1 alternates untraced and traced passes and prints the
// per-layer metrics; the traced pass wraps the calls into each layer
// (see trace.go) and must reproduce every simulated metric exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minSetups is how many times a run builds the workload's cluster:
// setup_s is the median over them.
const minSetups = 9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: prefix-stream, pressure-online or churn-chaos")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "wall-clock budget for the measured passes")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its per-request spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// One processor. Host metrics are process CPU time, and with a
	// second processor the Go scheduler's spin-waiting between the
	// shard goroutines adds CPU time that moves with the host's load
	// (8.2 CPU-seconds for a prefix-stream pass at one time, 10.2 to
	// 12.3 for the same pass at another). The
	// streamed workload still runs one shard per CPU, at most two.
	runtime.GOMAXPROCS(1)
	shards := min(runtime.NumCPU(), 2)
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d, %ds budget, trace %d; nproc %d, GOMAXPROCS %d, shards %d, %s\n",
		w.name, *seed, *seconds, *traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0), shards, runtime.Version())
	fmt.Fprintln(stdout, "perfbench: host metrics are process CPU time; simulated metrics come from the internal/gpu roofline model, not validated against hardware;",
		"arrivals are scheduled on the simulated clock, so the open-loop generator cannot run late")

	r := measure(w, *seed, shards, time.Duration(*seconds)*time.Second, *traceMode == 1)
	if r.err != nil {
		fmt.Fprintln(stderr, "perfbench:", r.err)
		return 1
	}
	if *traceMode == 1 && r.traced != nil {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.csv", w.name, *seed))
		if err := r.traced.tr.writeSpans(path); err != nil {
			r.problems = append(r.problems, "writing spans: "+err.Error())
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	defs := endToEnd
	if *traceMode == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.problems = append(r.problems, "metric "+d.name+" was not produced")
		}
	}
	printReport(stdout, w, r, defs)
	if len(r.problems) > 0 {
		for _, p := range r.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// runResult is one benchmark run: every pass plus the reported metrics.
type runResult struct {
	passes   []*passResult
	traced   *passResult // last traced pass (trace mode)
	setups   []time.Duration
	metrics  map[string]float64
	samples  map[string]int
	problems []string
	err      error
}

// measure runs passes until the budget is spent — untraced only, or
// alternating untraced and traced — then derives the reported metrics
// and runs the cross-pass checks.
func measure(w *workloadSpec, seed int64, shards int, budget time.Duration, traced bool) *runResult {
	r := &runResult{metrics: map[string]float64{}, samples: map[string]int{}}
	start := time.Now()
	for {
		p, err := runPass(w, seed, shards, traced && len(r.passes)%2 == 1)
		if err != nil {
			r.err = err
			return r
		}
		if p.tr != nil {
			// Only the last traced pass's spans are written out.
			if r.traced != nil {
				r.traced.tr = nil
			}
			r.traced = p
		}
		r.passes = append(r.passes, p)
		r.setups = append(r.setups, p.setup)
		elapsed := time.Since(start)
		perPass := elapsed / time.Duration(len(r.passes))
		if (!traced || len(r.passes) >= 2) && elapsed+perPass > budget {
			break
		}
	}
	for len(r.setups) < minSetups {
		d, err := setupOnly(w, seed, shards)
		if err != nil {
			r.err = err
			return r
		}
		r.setups = append(r.setups, d)
	}

	first := r.passes[0]
	var untracedCPU, tracedCPU, allocs, heaps []float64
	for i, p := range r.passes {
		r.problems = append(r.problems, p.problems...)
		if i > 0 && !sameMetrics(first.sim.metrics, p.sim.metrics) {
			r.problems = append(r.problems, fmt.Sprintf("pass %d (traced %v): simulated metrics differ from pass 0", i, p.layers != nil))
		}
		if p.layers != nil {
			tracedCPU = append(tracedCPU, p.cpu.Seconds())
			continue
		}
		untracedCPU = append(untracedCPU, p.cpu.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/1024/float64(p.sim.attempted))
		heaps = append(heaps, float64(p.peakHeap)/(1<<20))
	}
	if traced {
		r.metrics = r.traced.layers
		r.metrics["trace.overhead"] = median(tracedCPU) / median(untracedCPU)
		r.metrics["host.req_per_cpu_s"] = float64(first.sim.attempted) / median(untracedCPU)
	} else {
		for k, v := range first.sim.metrics {
			r.metrics[k] = v
		}
		for k, v := range first.sim.samples {
			r.samples[k] = v
		}
		r.metrics["alloc_kb_per_req"] = median(allocs)
		r.metrics["peak_heap_mb"] = median(heaps)
		setups := make([]float64, len(r.setups))
		for i, d := range r.setups {
			setups[i] = d.Seconds()
		}
		r.metrics["setup_s"] = median(setups)
	}
	return r
}

// passResult is one setup-and-serve pass.
type passResult struct {
	// setup and cpu are process CPU time (all threads), wall is the
	// serve call's wall time.
	setup, wall, cpu time.Duration
	peakHeap         uint64 // bytes
	allocBytes       uint64 // heap bytes allocated by the serve call
	sim              simOutcome
	// layers is set on traced passes, and tr until a later traced
	// pass replaces it. A pass keeps nothing that holds its cluster
	// alive, so later passes measure their own heap.
	tr       *tracer
	layers   map[string]float64
	problems []string
}

// prepared is a pass's set-up state.
type prepared struct {
	p    *plan
	c    *cluster.Cluster
	obs  *observer
	tr   *tracer
	mgrs []core.Manager // unwrapped, for the end-of-pass checks
	reqs []workload.Request
	src  workload.Source
}

// prepare builds the plan and the cluster and materializes an online
// workload: everything setup_s measures.
func prepare(w *workloadSpec, seed int64, shards int, traced bool) (*prepared, error) {
	p, err := w.plan(seed, shards)
	if err != nil {
		return nil, err
	}
	s := &prepared{p: p, obs: newObserver(p.cfg.Replicas), mgrs: make([]core.Manager, p.cfg.Replicas)}
	newMgr := p.cfg.NewManager
	p.cfg.NewManager = func(rep int) (core.Manager, error) {
		m, err := newMgr(rep)
		s.mgrs[rep] = m
		return m, err
	}
	src := p.source
	if traced {
		s.tr = newTracer(p.cfg.Replicas)
		s.tr.instrument(&p.cfg)
		src = s.tr.source(src)
	}
	p.cfg.EventSink = s.obs.sink
	s.src = s.obs.record(src)
	if !p.stream {
		s.reqs = workload.Collect(s.src)
		if p.finish != nil {
			p.finish(&p.cfg, s.reqs)
		}
	}
	s.c, err = cluster.New(p.cfg)
	return s, err
}

// setupOnly builds one pass's set-up and returns its CPU time.
func setupOnly(w *workloadSpec, seed int64, shards int) (time.Duration, error) {
	runtime.GC()
	c0 := cpuTime()
	_, err := prepare(w, seed, shards, false)
	return cpuTime() - c0, err
}

// runPass sets up and serves the workload once.
func runPass(w *workloadSpec, seed int64, shards int, traced bool) (*passResult, error) {
	runtime.GC()
	c0 := cpuTime()
	s, err := prepare(w, seed, shards, traced)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	out := &passResult{setup: cpuTime() - c0, tr: s.tr}
	var before []int64
	var admitBefore int64
	if s.tr != nil {
		before = s.tr.busy()
		if s.tr.admit != nil {
			admitBefore = s.tr.admit.ns.Load()
		}
	}

	hw := watchHeap()
	alloc0 := totalAlloc()
	cpu0 := cpuTime()
	t1 := time.Now()
	var res *cluster.Result
	if s.p.stream {
		res, err = s.c.ServeStream(s.src, cluster.StreamConfig{Shards: s.p.shards})
	} else {
		res, err = s.c.ServeOnline(s.reqs)
	}
	out.wall = time.Since(t1)
	out.cpu = cpuTime() - cpu0
	out.allocBytes = totalAlloc() - alloc0
	out.peakHeap = hw.done()
	if err != nil {
		return nil, fmt.Errorf("%s serve: %w", w.name, err)
	}

	if s.tr != nil {
		// Wrapped time during the serve call, per lane and in total.
		var children int64
		for i, b := range s.tr.busy() {
			b -= before[i]
			children += b
			if b > int64(out.wall) {
				out.problems = append(out.problems, fmt.Sprintf(
					"lane %d: wrapped calls took %v, more than the %v serve call they ran in", i, time.Duration(b), out.wall))
			}
		}
		if s.tr.admit != nil {
			children += s.tr.admit.ns.Load() - admitBefore
		}
		out.layers = layerMetrics(s.tr, res, s.mgrs, out.wall, out.cpu, time.Duration(children))
	}
	out.sim = simMetrics(res, s.obs, s.p.cfg.SLOTTFT, s.p.deadline)
	out.problems = append(out.problems, out.sim.problems...)
	for i, m := range s.mgrs {
		if u := m.Usage(); u.Used != 0 || u.SharedBytes != 0 {
			out.problems = append(out.problems, fmt.Sprintf("replica %d holds KV after the drain: used %d, shared %d bytes", i, u.Used, u.SharedBytes))
		}
	}
	if !s.p.stream {
		// ServeOnline keeps per-request records, so the cluster's exact
		// percentiles must agree with the benchmark's own.
		for _, c := range []struct {
			name string
			got  time.Duration
		}{{"sim_ttft_p50_ms", res.P50TTFT}, {"sim_ttft_p99_ms", res.P99TTFT}} {
			if v, ok := out.sim.metrics[c.name]; ok && v != float64(c.got)/float64(time.Millisecond) {
				out.problems = append(out.problems, fmt.Sprintf("%s: benchmark %.6f ms, cluster %.6f ms", c.name, v, float64(c.got)/float64(time.Millisecond)))
			}
		}
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics of a traced pass; wall
// and cpu are the serve call's, children the wrapped time inside it.
func layerMetrics(t *tracer, res *cluster.Result, mgrs []core.Manager, wall, cpu, children time.Duration) map[string]float64 {
	tot := t.totals()
	var stats core.Stats
	for i, m := range mgrs {
		stats = addStats(stats, t.replicas[i].stats)
		if s, ok := m.(interface{ Stats() core.Stats }); ok {
			stats = addStats(stats, s.Stats())
		}
	}
	var admit stat
	var shed int64
	if t.admit != nil {
		admit = stat{calls: t.admit.calls.Load(), ns: t.admit.ns.Load()}
		shed = t.admit.shed.Load()
	}
	self := (cpu - children).Seconds()
	m := map[string]float64{
		"core.lookup_calls":          float64(tot.lookup.calls),
		"core.lookup_s":              tot.lookup.seconds(),
		"core.lookup_hit_share":      ratio(tot.lookupHits, tot.lookupTokens),
		"core.reserve_calls":         float64(tot.reserve.calls),
		"core.reserve_s":             tot.reserve.seconds(),
		"core.reserve_nospace":       float64(tot.reserveNoSpace),
		"core.commit_calls":          float64(tot.commit.calls),
		"core.commit_s":              tot.commit.seconds(),
		"core.release_calls":         float64(tot.release.calls),
		"core.release_s":             tot.release.seconds(),
		"core.tier_calls":            float64(tot.tier.calls),
		"core.tier_s":                tot.tier.seconds(),
		"core.fork_calls":            float64(tot.forks),
		"core.fork_s":                tot.fork.seconds(),
		"core.other_calls":           float64(tot.other.calls),
		"core.other_s":               tot.other.seconds(),
		"core.swap_outs":             float64(res.SwapOuts),
		"core.evictions":             float64(stats.SmallEvictions + stats.LargeEvictions),
		"core.cow_copies":            float64(stats.CowCopies),
		"cluster.route_calls":        float64(tot.route.calls),
		"cluster.route_s":            tot.route.seconds(),
		"cluster.route_affinity":     ratio(tot.routedAgain, tot.routed),
		"cluster.serve_s":            wall.Seconds(),
		"cluster.serve_cpu_s":        cpu.Seconds(),
		"cluster.self_s":             self,
		"cluster.self_share":         self / cpu.Seconds(),
		"workload.next_calls":        float64(tot.next.calls),
		"workload.next_s":            tot.next.seconds(),
		"sched.pick_calls":           float64(tot.picks),
		"sched.victim_calls":         float64(tot.victimCalls),
		"sched.victims":              float64(tot.victims),
		"sched.busy_s":               tot.sched.seconds(),
		"engine.admit_calls":         float64(admit.calls),
		"engine.admit_s":             admit.seconds(),
		"engine.admit_shed":          float64(shed),
		"engine.recomputed_tokens":   float64(res.RecomputedTokens),
		"engine.cached_prompt_share": res.HitRate,
		"fleet.peer_hit_rate":        res.PeerHitRate,
		"fleet.peer_bytes":           float64(res.PeerBytes),
		"fleet.fetch_retries":        float64(res.FetchRetries),
		"fleet.fetch_failures":       float64(res.FetchFailures),
		"fleet.migrations":           float64(res.Migrations),
		"chaos.lost":                 float64(res.LostRequests),
		"chaos.redispatched":         float64(res.Redispatched),
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the heap bytes the process has allocated so far.
// ReadMemStats flushes every per-processor cache first, so the count
// is exact.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapWatcher tracks the peak live heap until stopped: the heap the
// last garbage collection found reachable, sampled every 10ms, and
// once more after a collection forced when it stops (collections mark
// at irregular times, so without it the end-of-run heap, often the
// largest, is missed in some runs and not in others).
type heapWatcher struct {
	peak atomic.Uint64
	s    []metrics.Sample // reused, so sampling allocates nothing
	stop chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) sample() {
	metrics.Read(w.s)
	if h := w.s[0].Value.Uint64(); h > w.peak.Load() {
		w.peak.Store(h)
	}
}

// done stops the watcher and returns the peak in bytes.
func (w *heapWatcher) done() uint64 {
	close(w.stop)
	w.wg.Wait()
	runtime.GC()
	w.sample()
	return w.peak.Load()
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints one line per metric, then the JSON result line.
func printReport(out io.Writer, w *workloadSpec, r *runResult, defs []metricDef) {
	res := result{Correct: len(r.problems) == 0, Metrics: map[string]metricValue{}}
	var walls []string
	for _, p := range r.passes {
		res.Attempted += p.sim.attempted
		res.Failed += p.sim.failed
		kind := "untraced"
		if p.layers != nil {
			kind = "traced"
		}
		walls = append(walls, fmt.Sprintf("%s %.3fs wall %.3fs cpu %.3fMB alloc", kind, p.wall.Seconds(), p.cpu.Seconds(), float64(p.allocBytes)/(1<<20)))
	}
	fmt.Fprintf(out, "%s: %d passes (%s); %d set-ups\n", w.name, len(r.passes), strings.Join(walls, ", "), len(r.setups))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		extra := ""
		if n, ok := r.samples[d.name]; ok {
			extra = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(out, "  %-28s %16.6f %-6s %s%s\n", d.name, v, d.unit, d.clock, extra)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(out, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return
	}
	fmt.Fprintln(out, string(line))
}
