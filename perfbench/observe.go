package main

import (
	"fmt"
	"sort"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// evRec is one lifecycle event a replica emitted.
type evRec struct {
	id    int64
	clock time.Duration
	gen   int32
	typ   engine.EventType
}

// observer collects what the simulated-clock metrics need and
// cluster.Result does not carry (per-request TPOT, output tokens, and
// TTFT next to the deadline for goodput). Each replica's events go to
// its own log, touched only by the goroutine driving that replica;
// arrivals are recorded on the routing goroutine as the source yields
// them.
type observer struct {
	logs     [][]evRec
	arrivals map[int64]time.Duration
}

func newObserver(replicas int) *observer {
	return &observer{logs: make([][]evRec, replicas), arrivals: make(map[int64]time.Duration)}
}

// sink is the cluster's EventSink.
func (o *observer) sink(rep int, ev engine.Event) {
	switch ev.Type {
	case engine.EventQueued, engine.EventFirstToken, engine.EventFinished:
		o.logs[rep] = append(o.logs[rep], evRec{id: ev.ID, clock: ev.Clock, gen: int32(ev.Generated), typ: ev.Type})
	}
}

// record wraps src so every request it yields has its arrival noted.
func (o *observer) record(src workload.Source) workload.Source {
	return workload.Apply(src, func(r *workload.Request) { o.arrivals[r.ID] = r.Arrival })
}

// reqKey identifies a request fleet-wide. Workload IDs are unique
// across the fleet (rep is -1); fork branches get IDs from a
// per-replica counter, so they are keyed by their replica too.
type reqKey struct {
	rep int
	id  int64
}

type reqRec struct {
	arrival, first, finish time.Duration
	hasFirst, finished     bool
	gen                    int32
}

// finishedReq is one finished request's latencies.
type finishedReq struct {
	ttft, e2e time.Duration
	tpot      time.Duration // 0 when fewer than two output tokens
	gen       int32
}

// join folds the event logs into one record per finished request and
// counts the fork branches the engines spawned (requests the workload
// did not generate).
func (o *observer) join() (fin []finishedReq, branches int, err error) {
	recs := make(map[reqKey]*reqRec, len(o.arrivals))
	for rep, log := range o.logs {
		for _, ev := range log {
			k := reqKey{rep: -1, id: ev.id}
			arrival, known := o.arrivals[ev.id]
			if !known {
				k.rep = rep
			}
			r := recs[k]
			if r == nil {
				r = &reqRec{arrival: arrival}
				if !known {
					// A fork branch arrives when it is queued at the fork.
					if ev.typ != engine.EventQueued {
						return nil, 0, fmt.Errorf("request %d on replica %d: %v before it was queued", ev.id, rep, ev.typ)
					}
					r.arrival = ev.clock
					branches++
				}
				recs[k] = r
			}
			switch ev.typ {
			case engine.EventFirstToken:
				// A migrated request keeps its first token; the earliest
				// one is the request's.
				if !r.hasFirst || ev.clock < r.first {
					r.first, r.hasFirst = ev.clock, true
				}
			case engine.EventFinished:
				if r.finished {
					return nil, 0, fmt.Errorf("request %d finished twice", ev.id)
				}
				r.finish, r.finished, r.gen = ev.clock, true, ev.gen
			}
		}
	}
	for k, r := range recs {
		if !r.finished {
			continue
		}
		if !r.hasFirst {
			return nil, 0, fmt.Errorf("request %d finished without a first token", k.id)
		}
		f := finishedReq{ttft: r.first - r.arrival, e2e: r.finish - r.arrival, gen: r.gen}
		if r.gen >= 2 {
			f.tpot = (r.finish - r.first) / time.Duration(r.gen-1)
		}
		fin = append(fin, f)
	}
	return fin, branches, nil
}

// percentile is the nearest-rank p-th percentile of sorted, with the
// number of samples that lie beyond it. ok is false when fewer than
// minBeyond samples lie beyond a percentile above the median: a tail
// percentile that few samples support is not reported.
func percentile(sorted []time.Duration, p int) (v time.Duration, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := max((n*p+99)/100, 1)
	beyond = n - rank
	if p > 50 && beyond < minBeyond {
		return sorted[rank-1], beyond, false
	}
	return sorted[rank-1], beyond, true
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// simOutcome is one pass's simulated-clock outcome: the metrics plus
// the request accounting the correctness checks use.
type simOutcome struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile
	attempted int
	failed    int // failed plus lost
	problems  []string
}

// simMetrics computes the simulated-clock end-to-end metrics of one
// pass from the cluster result and the observer.
func simMetrics(res *cluster.Result, o *observer, ttftLimit, deadline time.Duration) simOutcome {
	out := simOutcome{metrics: map[string]float64{}, samples: map[string]int{}}
	fin, branches, err := o.join()
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	out.attempted = len(o.arrivals) + branches
	out.failed = res.Failed + res.LostRequests
	if got := res.Finished + res.Failed + res.Shed + res.LostRequests; got != out.attempted {
		out.problems = append(out.problems, fmt.Sprintf(
			"request conservation: finished %d + failed %d + shed %d + lost %d = %d, attempted %d",
			res.Finished, res.Failed, res.Shed, res.LostRequests, got, out.attempted))
	}
	if len(fin) != res.Finished {
		out.problems = append(out.problems, fmt.Sprintf("%d finished events, cluster reports %d finished", len(fin), res.Finished))
	}
	if out.attempted == 0 || res.Duration <= 0 {
		out.problems = append(out.problems, "no request was served")
		return out
	}
	simS := res.Duration.Seconds()
	var ttfts, tpots []time.Duration
	var outTokens int64
	good, sloMet := 0, 0
	for _, f := range fin {
		ttfts = append(ttfts, f.ttft)
		if f.gen >= 2 {
			tpots = append(tpots, f.tpot)
		}
		outTokens += int64(f.gen)
		if f.ttft <= ttftLimit {
			sloMet++
			if deadline == 0 || f.e2e <= deadline {
				good++
			}
		}
	}
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	sort.Slice(tpots, func(i, j int) bool { return tpots[i] < tpots[j] })
	m := out.metrics
	m["sim_req_per_s"] = res.ReqPerSec
	m["sim_tokens_per_s"] = float64(outTokens) / simS
	for _, q := range []struct {
		name string
		xs   []time.Duration
		p    int
	}{
		{"sim_ttft_p50_ms", ttfts, 50},
		{"sim_ttft_p99_ms", ttfts, 99},
		{"sim_tpot_p50_ms", tpots, 50},
		{"sim_tpot_p99_ms", tpots, 99},
	} {
		v, beyond, ok := percentile(q.xs, q.p)
		if !ok {
			out.problems = append(out.problems, fmt.Sprintf("%s: %d samples, %d beyond it (need %d)", q.name, len(q.xs), beyond, minBeyond))
			continue
		}
		m[q.name] = float64(v) / float64(time.Millisecond)
		out.samples[q.name] = len(q.xs)
	}
	m["sim_goodput_per_s"] = float64(good) / simS
	m["slo_attainment"] = float64(sloMet) / float64(out.attempted)
	m["kv_util_mean"] = res.MeanKVUtil
	m["admit_rate"] = 1 - float64(res.Shed)/float64(out.attempted)
	m["survive_rate"] = 1 - float64(out.failed)/float64(out.attempted)
	return out
}
