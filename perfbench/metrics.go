package main

import "regexp"

// metricDef describes one reported metric. Clock is "host" for what
// the simulator costs on the machine running it and "sim" for the
// modelled serving system; sim metrics repeat bit for bit for a seed.
type metricDef struct {
	name, unit, clock string
	higherBetter      bool
}

// endToEnd are the metrics a user of the simulator or of the modelled
// system sees, printed by the untraced run.
var endToEnd = []metricDef{
	{"alloc_kb_per_req", "KB/req", "host", false},
	{"peak_heap_mb", "MB", "host", false},
	{"setup_s", "s", "host", false},
	{"sim_req_per_s", "req/s", "sim", true},
	{"sim_tokens_per_s", "tok/s", "sim", true},
	{"sim_ttft_p50_ms", "ms", "sim", false},
	{"sim_ttft_p99_ms", "ms", "sim", false},
	{"sim_tpot_p50_ms", "ms", "sim", false},
	{"sim_tpot_p99_ms", "ms", "sim", false},
	{"sim_goodput_per_s", "req/s", "sim", true},
	{"slo_attainment", "share", "sim", true},
	{"kv_util_mean", "share", "sim", true},
	{"admit_rate", "share", "sim", true},
	{"survive_rate", "share", "sim", true},
}

// perLayer are the traced run's metrics, named after the modules whose
// calls the benchmark wraps. Counts and shares come from the program's
// own counters or the wrappers' call counts and repeat for a seed; _s
// metrics are host time summed inside the wrapped calls.
var perLayer = []metricDef{
	{"core.lookup_calls", "count", "sim", false},
	{"core.lookup_s", "s", "host", false},
	{"core.lookup_hit_share", "share", "sim", true},
	{"core.reserve_calls", "count", "sim", false},
	{"core.reserve_s", "s", "host", false},
	{"core.reserve_nospace", "count", "sim", false},
	{"core.commit_calls", "count", "sim", false},
	{"core.commit_s", "s", "host", false},
	{"core.release_calls", "count", "sim", false},
	{"core.release_s", "s", "host", false},
	{"core.tier_calls", "count", "sim", false},
	{"core.tier_s", "s", "host", false},
	{"core.fork_calls", "count", "sim", false},
	{"core.fork_s", "s", "host", false},
	{"core.other_calls", "count", "sim", false},
	{"core.other_s", "s", "host", false},
	{"core.swap_outs", "count", "sim", false},
	{"core.evictions", "count", "sim", false},
	{"core.cow_copies", "count", "sim", false},
	{"cluster.route_calls", "count", "sim", false},
	{"cluster.route_s", "s", "host", false},
	{"cluster.route_affinity", "share", "sim", true},
	{"cluster.serve_s", "s", "host", false},
	{"cluster.serve_cpu_s", "s", "host", false},
	{"cluster.self_s", "s", "host", false},
	{"cluster.self_share", "share", "host", false},
	{"workload.next_calls", "count", "sim", false},
	{"workload.next_s", "s", "host", false},
	{"sched.pick_calls", "count", "sim", false},
	{"sched.victim_calls", "count", "sim", false},
	{"sched.victims", "count", "sim", false},
	{"sched.busy_s", "s", "host", false},
	{"engine.admit_calls", "count", "sim", false},
	{"engine.admit_s", "s", "host", false},
	{"engine.admit_shed", "count", "sim", false},
	{"engine.recomputed_tokens", "count", "sim", false},
	{"engine.cached_prompt_share", "share", "sim", true},
	{"fleet.peer_hit_rate", "share", "sim", true},
	{"fleet.peer_bytes", "B", "sim", false},
	{"fleet.fetch_retries", "count", "sim", false},
	{"fleet.fetch_failures", "count", "sim", false},
	{"fleet.migrations", "count", "sim", false},
	{"chaos.lost", "count", "sim", false},
	{"chaos.redispatched", "count", "sim", false},
	{"trace.overhead", "ratio", "host", false},
	{"host.req_per_cpu_s", "req/cpu-s", "host", true},
}

// Name and unit grammar of the benchmark contract.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)
