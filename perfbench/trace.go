package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// The traced pass wraps the calls the cluster makes into each layer —
// the workload source, the router, and every replica's memory
// manager, scheduler and admission policy — in the decorators below.
// Each decorator counts its calls and sums their wall time. State is
// kept per lane: one lane per replica (its manager and scheduler,
// driven by one goroutine at a time) and one for the routing loop
// (router and source), so shard goroutines take no locks.
// Per-request boundaries on the routing loop (source, route) also
// keep a span in memory, written out once the pass ends.

// stat is one layer's call count and time sum.
type stat struct {
	calls int64
	ns    int64
}

func (s *stat) since(t time.Time) {
	s.calls++
	s.ns += int64(time.Since(t))
}

func (s stat) seconds() float64 { return float64(s.ns) / 1e9 }

// span is one per-request layer boundary, in nanoseconds from the
// start of the pass.
type span struct {
	layer      string
	id         int64
	start, dur int64
}

// lane is the state of one goroutine-confined call path.
type lane struct {
	// Core manager calls: the four request-path operations, the
	// host-tier and fork capabilities, and the rest (usage, footprint,
	// capacity, vision, crash reset).
	lookup, reserve, commit, release, tier, fork, other stat
	lookupTokens, lookupHits                            int64
	reserveNoSpace, forks                               int64
	// Scheduler: every policy call; pick and victim calls counted
	// apart, victims is how many victim calls chose one.
	sched              stat
	picks, victimCalls int64
	victims            int64
	// Routing loop: router and source calls; routed counts requests
	// with a group label, routedAgain those sent to the replica their
	// group went to last.
	route, next         stat
	routed, routedAgain int64
	spans               []span
	// stats holds manager counters carried over a crash reset, which
	// rebuilds the manager cold.
	stats core.Stats
}

// busy is the lane's total time inside wrapped calls.
func (l *lane) busy() int64 {
	return l.lookup.ns + l.reserve.ns + l.commit.ns + l.release.ns + l.tier.ns + l.fork.ns + l.other.ns +
		l.sched.ns + l.route.ns + l.next.ns
}

func (l *lane) span(layer string, id int64, t time.Time, base time.Time) {
	l.spans = append(l.spans, span{layer: layer, id: id, start: int64(t.Sub(base)), dur: int64(time.Since(t))})
}

// tracer holds one traced pass's lanes.
type tracer struct {
	base     time.Time
	replicas []*lane
	loop     lane
	// lastRep remembers where each prefix group was last routed
	// (cluster.route_affinity).
	lastRep map[int64]int
	admit   *admitTrace
}

func newTracer(replicas int) *tracer {
	t := &tracer{base: time.Now(), replicas: make([]*lane, replicas), lastRep: map[int64]int{}}
	for i := range t.replicas {
		t.replicas[i] = &lane{}
	}
	return t
}

// instrument wraps cfg's hooks. Only hooks the config sets are
// wrapped, so the traced pass runs the same configuration.
func (t *tracer) instrument(cfg *cluster.Config) {
	if newMgr := cfg.NewManager; newMgr != nil {
		cfg.NewManager = func(rep int) (core.Manager, error) {
			m, err := newMgr(rep)
			if err != nil {
				return nil, err
			}
			return wrapManager(m, t.replicas[rep]), nil
		}
	}
	if r := cfg.Router; r != nil {
		cfg.Router = &routeTrace{inner: r, t: t}
	}
	if newSched := cfg.NewScheduler; newSched != nil {
		cfg.NewScheduler = func(rep int) sched.Scheduler {
			s := newSched(rep)
			if s == nil {
				return nil
			}
			return wrapScheduler(s, t.replicas[rep])
		}
	}
	if a := cfg.Admission; a != nil {
		t.admit = &admitTrace{inner: a}
		cfg.Admission = t.admit
	}
}

// source wraps the workload source.
func (t *tracer) source(src workload.Source) workload.Source {
	return &sourceTrace{inner: src, t: t}
}

// totals sums every lane.
func (t *tracer) totals() lane {
	var out lane
	add := func(l *lane) {
		for _, p := range []struct{ dst, src *stat }{
			{&out.lookup, &l.lookup}, {&out.reserve, &l.reserve}, {&out.commit, &l.commit},
			{&out.release, &l.release}, {&out.tier, &l.tier}, {&out.fork, &l.fork}, {&out.other, &l.other},
			{&out.sched, &l.sched}, {&out.route, &l.route}, {&out.next, &l.next},
		} {
			p.dst.calls += p.src.calls
			p.dst.ns += p.src.ns
		}
		out.lookupTokens += l.lookupTokens
		out.lookupHits += l.lookupHits
		out.reserveNoSpace += l.reserveNoSpace
		out.forks += l.forks
		out.picks += l.picks
		out.victimCalls += l.victimCalls
		out.victims += l.victims
		out.routed += l.routed
		out.routedAgain += l.routedAgain
	}
	for _, l := range t.replicas {
		add(l)
	}
	add(&t.loop)
	return out
}

// busy returns every lane's wrapped time so far, replicas first and
// the routing loop last.
func (t *tracer) busy() []int64 {
	out := make([]int64, 0, len(t.replicas)+1)
	for _, l := range t.replicas {
		out = append(out, l.busy())
	}
	return append(out, t.loop.busy())
}

// writeSpans writes every lane's spans as CSV (lane -1 is the routing
// loop).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane,layer,request,start_ns,dur_ns")
	write := func(lane int, l *lane) {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", lane, s.layer, s.id, s.start, s.dur)
		}
	}
	write(-1, &t.loop)
	for i, l := range t.replicas {
		write(i, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sourceTrace wraps workload.Source.
type sourceTrace struct {
	inner workload.Source
	t     *tracer
}

func (s *sourceTrace) Next() (*workload.Request, bool) {
	t0 := time.Now()
	r, ok := s.inner.Next()
	s.t.loop.next.since(t0)
	if ok {
		s.t.loop.span("workload.next", r.ID, t0, s.t.base)
	}
	return r, ok
}

// routeTrace wraps cluster.Router.
type routeTrace struct {
	inner cluster.Router
	t     *tracer
}

func (r *routeTrace) Name() string { return r.inner.Name() }

func (r *routeTrace) Route(req *workload.Request, loads []cluster.Load) int {
	t0 := time.Now()
	rep := r.inner.Route(req, loads)
	l := &r.t.loop
	l.route.since(t0)
	l.span("cluster.route", req.ID, t0, r.t.base)
	if req.Group != 0 {
		l.routed++
		if last, ok := r.t.lastRep[req.Group]; ok && last == rep {
			l.routedAgain++
		}
		r.t.lastRep[req.Group] = rep
	}
	return rep
}

// admitTrace wraps engine.AdmissionPolicy. The cluster hands one
// policy value to every replica engine and the policy cannot tell
// which replica calls it, so its counters are atomics shared by all
// replicas (lock-free, one update per arrival) instead of lane state.
type admitTrace struct {
	inner           engine.AdmissionPolicy
	calls, ns, shed atomic.Int64
}

func (a *admitTrace) Name() string { return a.inner.Name() }

func (a *admitTrace) Decide(req *workload.Request, s engine.AdmissionState) engine.AdmissionDecision {
	t0 := time.Now()
	d := a.inner.Decide(req, s)
	a.ns.Add(int64(time.Since(t0)))
	a.calls.Add(1)
	if d == engine.Shed {
		a.shed.Add(1)
	}
	return d
}

// wrapScheduler wraps s, forwarding sched.AdmissionPreempter exactly
// when s implements it: the engine skips admission-time preemption
// for schedulers that say they never do it.
func wrapScheduler(s sched.Scheduler, l *lane) sched.Scheduler {
	st := &schedTrace{inner: s, l: l}
	if p, ok := s.(sched.AdmissionPreempter); ok {
		return &preempterTrace{schedTrace: st, p: p}
	}
	return st
}

type schedTrace struct {
	inner sched.Scheduler
	l     *lane
}

func (s *schedTrace) Name() string { return s.inner.Name() }

func (s *schedTrace) PickWaiting(v *sched.View) int {
	t0 := time.Now()
	i := s.inner.PickWaiting(v)
	s.l.sched.since(t0)
	s.l.picks++
	return i
}

func (s *schedTrace) VictimFor(requester sched.ReqInfo, v *sched.View) int {
	t0 := time.Now()
	i := s.inner.VictimFor(requester, v)
	s.l.sched.since(t0)
	s.l.victimCalls++
	if i >= 0 {
		s.l.victims++
	}
	return i
}

func (s *schedTrace) PrefillBudget(v *sched.View, total int) sched.Split {
	t0 := time.Now()
	sp := s.inner.PrefillBudget(v, total)
	s.l.sched.since(t0)
	return sp
}

func (s *schedTrace) RankWaiting(cand sched.ReqInfo, v *sched.View) int {
	t0 := time.Now()
	n := s.inner.RankWaiting(cand, v)
	s.l.sched.since(t0)
	return n
}

type preempterTrace struct {
	*schedTrace
	p sched.AdmissionPreempter
}

func (s *preempterTrace) AdmissionPreempts() bool { return s.p.AdmissionPreempts() }

// mgrTrace wraps core.Manager; the capability parts below add the
// optional interfaces the inner manager implements.
type mgrTrace struct {
	inner core.Manager
	l     *lane
}

func (m *mgrTrace) Lookup(seq *core.Sequence) int {
	t0 := time.Now()
	n := m.inner.Lookup(seq)
	m.l.lookup.since(t0)
	m.l.lookupHits += int64(n)
	m.l.lookupTokens += int64(len(seq.Tokens))
	return n
}

func (m *mgrTrace) Reserve(seq *core.Sequence, upTo int, now core.Tick) error {
	t0 := time.Now()
	err := m.inner.Reserve(seq, upTo, now)
	m.l.reserve.since(t0)
	if errors.Is(err, core.ErrNoSpace) {
		m.l.reserveNoSpace++
	}
	return err
}

func (m *mgrTrace) Commit(seq *core.Sequence, upTo int, now core.Tick) {
	t0 := time.Now()
	m.inner.Commit(seq, upTo, now)
	m.l.commit.since(t0)
}

func (m *mgrTrace) Release(seq *core.Sequence, cache bool) {
	t0 := time.Now()
	m.inner.Release(seq, cache)
	m.l.release.since(t0)
}

func (m *mgrTrace) Usage() core.Usage {
	t0 := time.Now()
	u := m.inner.Usage()
	m.l.other.since(t0)
	return u
}

func (m *mgrTrace) UsageTotals() core.Usage {
	t0 := time.Now()
	u := m.inner.UsageTotals()
	m.l.other.since(t0)
	return u
}

func (m *mgrTrace) Capacity() int64 {
	t0 := time.Now()
	c := m.inner.Capacity()
	m.l.other.since(t0)
	return c
}

func (m *mgrTrace) CachedPrefix(seq *core.Sequence) int {
	t0 := time.Now()
	n := m.inner.CachedPrefix(seq)
	m.l.other.since(t0)
	return n
}

func (m *mgrTrace) EncodeImages(seq *core.Sequence, uptoFull int, now core.Tick) error {
	t0 := time.Now()
	err := m.inner.EncodeImages(seq, uptoFull, now)
	m.l.other.since(t0)
	return err
}

func (m *mgrTrace) DropImages(seq *core.Sequence, uptoFull int) {
	t0 := time.Now()
	m.inner.DropImages(seq, uptoFull)
	m.l.other.since(t0)
}

func (m *mgrTrace) SupportsVisionCache() bool { return m.inner.SupportsVisionCache() }

func (m *mgrTrace) Footprint(seq *core.Sequence) int64 {
	t0 := time.Now()
	n := m.inner.Footprint(seq)
	m.l.other.since(t0)
	return n
}

// tierTrace forwards core.TierManager (and the fleet store's optional
// NotePeerFetch, when the inner manager has it).
type tierTrace struct {
	inner core.TierManager
	l     *lane
}

func (t tierTrace) SwapOut(seq *core.Sequence) (int, int64) {
	t0 := time.Now()
	p, b := t.inner.SwapOut(seq)
	t.l.tier.since(t0)
	return p, b
}

func (t tierTrace) DrainTransfers() (int64, int64) {
	t0 := time.Now()
	h2d, d2h := t.inner.DrainTransfers()
	t.l.tier.since(t0)
	return h2d, d2h
}

func (t tierTrace) TierStats() core.TierStats {
	t0 := time.Now()
	s := t.inner.TierStats()
	t.l.tier.since(t0)
	return s
}

func (t tierTrace) RestoreCost(seq *core.Sequence) (int, int64) {
	t0 := time.Now()
	n, b := t.inner.RestoreCost(seq)
	t.l.tier.since(t0)
	return n, b
}

func (t tierTrace) ExportPrefix(group string, hashes []uint64) (core.PageSet, bool) {
	t0 := time.Now()
	ps, ok := t.inner.ExportPrefix(group, hashes)
	t.l.tier.since(t0)
	return ps, ok
}

func (t tierTrace) ImportPrefix(ps core.PageSet, now core.Tick) (int, int64) {
	t0 := time.Now()
	p, b := t.inner.ImportPrefix(ps, now)
	t.l.tier.since(t0)
	return p, b
}

func (t tierTrace) LookupFleet(seq *core.Sequence, peer core.PeerPresence) (int, []core.FetchBlock) {
	t0 := time.Now()
	p, fetch := t.inner.LookupFleet(seq, peer)
	t.l.tier.since(t0)
	return p, fetch
}

func (t tierTrace) SetTierObserver(obs core.TierObserver) { t.inner.SetTierObserver(obs) }

func (t tierTrace) NotePeerFetch(skipped, failed int64) {
	if n, ok := t.inner.(interface{ NotePeerFetch(skipped, failed int64) }); ok {
		n.NotePeerFetch(skipped, failed)
	}
}

// forkTrace forwards core.Forker.
type forkTrace struct {
	inner core.Forker
	l     *lane
}

func (f forkTrace) Fork(parent, child *core.Sequence, now core.Tick) error {
	t0 := time.Now()
	err := f.inner.Fork(parent, child, now)
	f.l.fork.since(t0)
	f.l.forks++
	return err
}

func (f forkTrace) DrainCopyBytes() int64 {
	t0 := time.Now()
	n := f.inner.DrainCopyBytes()
	f.l.fork.since(t0)
	return n
}

// crashTrace forwards core.Crasher, keeping the manager's counters
// across the cold restart.
type crashTrace struct {
	inner core.Crasher
	mgr   core.Manager
	l     *lane
}

func (c crashTrace) CrashReset() error {
	if s, ok := c.mgr.(interface{ Stats() core.Stats }); ok {
		c.l.stats = addStats(c.l.stats, s.Stats())
	}
	t0 := time.Now()
	err := c.inner.CrashReset()
	c.l.other.since(t0)
	return err
}

func addStats(a, b core.Stats) core.Stats {
	a.SmallEvictions += b.SmallEvictions
	a.LargeEvictions += b.LargeEvictions
	a.Forks += b.Forks
	a.CowCopies += b.CowCopies
	return a
}

// wrapManager wraps m so the result satisfies core.TierManager,
// core.Forker and core.Crasher exactly when m does: the engine, the
// fleet store and crash recovery all probe for them.
func wrapManager(m core.Manager, l *lane) core.Manager {
	base := &mgrTrace{inner: m, l: l}
	tm, tier := m.(core.TierManager)
	fk, fork := m.(core.Forker)
	cr, crash := m.(core.Crasher)
	t, f, c := tierTrace{tm, l}, forkTrace{fk, l}, crashTrace{cr, m, l}
	switch {
	case tier && fork && crash:
		return struct {
			*mgrTrace
			tierTrace
			forkTrace
			crashTrace
		}{base, t, f, c}
	case tier && fork:
		return struct {
			*mgrTrace
			tierTrace
			forkTrace
		}{base, t, f}
	case tier && crash:
		return struct {
			*mgrTrace
			tierTrace
			crashTrace
		}{base, t, c}
	case fork && crash:
		return struct {
			*mgrTrace
			forkTrace
			crashTrace
		}{base, f, c}
	case tier:
		return struct {
			*mgrTrace
			tierTrace
		}{base, t}
	case fork:
		return struct {
			*mgrTrace
			forkTrace
		}{base, f}
	case crash:
		return struct {
			*mgrTrace
			crashTrace
		}{base, c}
	default:
		return base
	}
}
