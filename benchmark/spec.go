package main

// metricSpec declares one metric of the benchmark: what BENCHMARK.json
// lists and what a run must emit, exactly once, with this unit.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Exact marks a count that must repeat exactly between two runs with
	// one seed.
	Exact bool `json:"-"`
}

// endToEndSpecs are the metrics a user of the system would see, each with
// the share of the parent's median by which it may get worse before a
// change counts as a regression. Every workload reports every one of them
// (a workload moves the inputs of one phase; the other phases stay at the
// Table 1 configuration as controls). failed_ratio is not among them: the
// driver's contract asks for metrics that are never 0 and carries the
// failed and attempted counts beside the metrics; the ratio is reported as
// a per-layer metric instead. update_goto_p50_ms and update_goto_p99_ms were
// measured as end-to-end metrics and demoted to per-layer metrics under the
// same names: the latency of a sub-millisecond round trip between two
// goroutines over loopback swung by 10–30% between runs of one commit, a
// bound that loose gates nothing, and with one caller in a closed loop the
// median latency is the inverse of update_goto_per_s anyway.
var endToEndSpecs = []metricSpec{
	{Name: "ovs_goto_mpps", Unit: "Mpps", Better: "higher", Bound: 0.25},
	{Name: "eswitch_universal_mpps", Unit: "Mpps", Better: "higher", Bound: 0.17},
	{Name: "eswitch_goto_mpps", Unit: "Mpps", Better: "higher", Bound: 0.17},
	{Name: "eswitch_fused_mpps", Unit: "Mpps", Better: "higher", Bound: 0.24},
	{Name: "lagopus_goto_mpps", Unit: "Mpps", Better: "higher", Bound: 0.20},
	{Name: "batch_p99_us", Unit: "us", Better: "lower", Bound: 0.22},
	{Name: "update_goto_per_s", Unit: "intents/s", Better: "higher", Bound: 0.25},
	{Name: "update_universal_per_s", Unit: "intents/s", Better: "higher", Bound: 0.24},
	{Name: "normalize_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "verify_equiv_s", Unit: "s", Better: "lower", Bound: 0.21},
	{Name: "confluence_verdicts_per_s", Unit: "verdicts/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerSpecs are the metrics of single layers, named after the repo's
// packages and timed from this directory around their public calls. They
// come from the traced pass and have no bound.
var perLayerSpecs = []metricSpec{
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "packet.decode_allocs", Unit: "allocs/kframe", Better: "lower"},
	{Name: "classifier.build_exact_us", Unit: "us", Better: "lower"},
	{Name: "classifier.build_lpm_us", Unit: "us", Better: "lower"},
	{Name: "classifier.exact_ns", Unit: "ns", Better: "lower"},
	{Name: "classifier.lpm_ns", Unit: "ns", Better: "lower"},
	{Name: "classifier.build_ternary_us", Unit: "us", Better: "lower"},
	{Name: "classifier.ternary_ns", Unit: "ns", Better: "lower"},
	{Name: "classifier.build_tss_us", Unit: "us", Better: "lower"},
	{Name: "classifier.tss_ns", Unit: "ns", Better: "lower"},
	{Name: "classifier.build_fdd_us", Unit: "us", Better: "lower"},
	{Name: "classifier.fdd_ns", Unit: "ns", Better: "lower"},
	{Name: "classifier.fdd_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "classifier.fdd_depth", Unit: "count", Better: "lower", Exact: true},
	{Name: "classifier.path_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.frames_universal_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.compile_goto_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.frames_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.allocs", Unit: "allocs/kframe", Better: "lower"},
	{Name: "dataplane.tables_per_pkt", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataplane.compile_fused_us", Unit: "us", Better: "lower"},
	{Name: "dataplane.frames_fused_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.nodecode_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.self_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.nodecode_fused_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.telemetry_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.explain_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.ovs_universal_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.ovs_fused_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.lagopus_universal_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.lagopus_fused_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.noviflow_goto_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.eswitch_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.eswitch_goto_batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "switches.ovs_emc_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "switches.ovs_megaflow_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "switches.ovs_slow_ratio", Unit: "ratio", Better: "lower"},
	{Name: "switches.ovs_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "switches.ovs_megaflow_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "switches.install_eswitch_goto_us", Unit: "us", Better: "lower"},
	{Name: "switches.install_ovs_goto_us", Unit: "us", Better: "lower"},
	{Name: "switches.install_eswitch_fused_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.plan_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.mods_per_intent_goto", Unit: "count", Better: "lower", Exact: true},
	{Name: "controlplane.mods_per_intent_universal", Unit: "count", Better: "lower", Exact: true},
	{Name: "openflow.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.send_flowmod_us", Unit: "us", Better: "lower"},
	{Name: "openflow.barrier_us", Unit: "us", Better: "lower"},
	{Name: "openflow.apply_flowmod_us", Unit: "us", Better: "lower"},
	{Name: "openflow.commit_us", Unit: "us", Better: "lower"},
	{Name: "openflow.tx_bytes_per_intent", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "openflow.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "openflow.dump_flows_ms", Unit: "ms", Better: "lower"},
	{Name: "update_goto_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "update_goto_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "openflow.resends", Unit: "count", Better: "lower", Exact: true},
	{Name: "openflow.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "fd.mine_ms_160", Unit: "ms", Better: "lower"},
	{Name: "fd.mine_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "fd.mine_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "fd.mine_ms_l3", Unit: "ms", Better: "lower"},
	{Name: "fd.cover_us", Unit: "us", Better: "lower"},
	{Name: "core.normalize_ms_160", Unit: "ms", Better: "lower"},
	{Name: "core.normalize_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "core.normalize_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "core.normalize_ms_l3", Unit: "ms", Better: "lower"},
	{Name: "core.togoto_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "core.denormalize_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "core.denormalize_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "core.stages_10k", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.entries_10k", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.fields_ratio_10k", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.steps_10k", Unit: "count", Better: "lower", Exact: true},
	{Name: "netkat.equiv_ms_160", Unit: "ms", Better: "lower"},
	{Name: "netkat.equiv_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "netkat.equiv_records_2k", Unit: "count", Better: "lower", Exact: true},
	{Name: "mat.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "fdd.fuse_ms_160", Unit: "ms", Better: "lower"},
	{Name: "fdd.fuse_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "fdd.fuse_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "fdd.fuse_ms_l3", Unit: "ms", Better: "lower"},
	{Name: "fdd.rules_10k", Unit: "count", Better: "lower", Exact: true},
	{Name: "confluence.fingerprint_ms_160", Unit: "ms", Better: "lower"},
	{Name: "confluence.fingerprint_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "confluence.canonical_state_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "confluence.fingerprint_ms_10k", Unit: "ms", Better: "lower"},
	{Name: "confluence.check_ms", Unit: "ms", Better: "lower"},
	{Name: "confluence.orderings", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.commutes_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.batch_conflicts_us", Unit: "us", Better: "lower"},
	{Name: "fabric.place_ms_2k", Unit: "ms", Better: "lower"},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.counter_ns", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
}
