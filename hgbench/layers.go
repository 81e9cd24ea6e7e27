package main

// perLayer lists the trace-1 metrics, as in BENCHMARK.json. A workload
// reports 0 for a layer its ops never call.
var perLayer = []metricDef{
	{"mcheck.explore_s", "s"},
	{"mcheck.states", "count"},
	{"mcheck.transitions", "count"},
	{"mcheck.ample_ratio", "ratio"},
	{"mcheck.bytes_per_state", "B"},
	{"mcheck.peak_load_factor", "ratio"},
	{"mcheck.step.moves_us", "us"},
	{"mcheck.step.apply_us", "us"},
	{"mcheck.step.encode_us", "us"},
	{"mcheck.step.clone_us", "us"},
	{"mcheck.unattributed_s", "s"},
	{"core.fuse_ms", "ms"},
	{"core.compile.extract_s", "s"},
	{"core.compile.finalize_ms", "ms"},
	{"core.compile.interpreted", "count"},
	{"core.compile.memo_hits", "count"},
	{"core.compile.memo_hit_ratio", "ratio"},
	{"core.table.dir_states", "count"},
	{"core.table.transitions", "count"},
	{"core.artifact.bytes", "B"},
	{"core.artifact.marshal_ms", "ms"},
	{"core.artifact.load_ms", "ms"},
	{"litmus.explore_s", "s"},
	{"litmus.states", "count"},
	{"memmodel.verdict_s", "s"},
	{"workload.generate_s", "s"},
	{"sim.run_s", "s"},
	{"sim.messages", "count"},
	{"sim.memops", "count"},
	{"sim.host_ns_per_msg", "ns"},
	{"sim.cycles", "count"},
	{"sim.flits", "count"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layerValues derives the per-layer metrics from a traced run's spans
// and counters. Times are summed over the traced pass (the fusion time is
// the median call, set-up included); counts are summed over the pass.
func layerValues(tr *Tracer) map[string]float64 {
	v := map[string]float64{}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	explore := tr.Total("mcheck.explore").Seconds()
	states, trans := tr.Count("mcheck.states"), tr.Count("mcheck.transitions")
	v["mcheck.explore_s"] = explore
	v["mcheck.states"] = states
	v["mcheck.transitions"] = trans
	v["mcheck.ample_ratio"] = ratio(tr.Count("mcheck.por_reduced"), states)
	v["mcheck.bytes_per_state"] = ratio(tr.Count("mcheck.table_bytes"), states)
	v["mcheck.peak_load_factor"] = tr.Count("mcheck.peak_load_factor")
	for _, step := range []string{"moves", "apply", "encode", "clone"} {
		v["mcheck.step."+step+"_us"] = tr.Count("mcheck.step." + step + "_us")
	}
	if v["mcheck.step.apply_us"] > 0 {
		// The step probe prices one state's expansion; whatever the
		// search spends beyond that is the visited-set probe, the
		// frontier and POR.
		stepUS := states*(v["mcheck.step.moves_us"]+v["mcheck.step.clone_us"]) +
			trans*(v["mcheck.step.apply_us"]+v["mcheck.step.encode_us"])
		v["mcheck.unattributed_s"] = explore - stepUS/1e6
	}

	v["core.fuse_ms"] = median(durationsMS(tr.Durations("core.fuse")))
	interp, hits := tr.Count("core.compile.interpreted"), tr.Count("core.compile.memo_hits")
	v["core.compile.extract_s"] = tr.Count("core.compile.extract_s")
	v["core.compile.finalize_ms"] = tr.Count("core.compile.finalize_ms")
	v["core.compile.interpreted"] = interp
	v["core.compile.memo_hits"] = hits
	v["core.compile.memo_hit_ratio"] = ratio(hits, interp+hits)
	v["core.table.dir_states"] = tr.Count("core.table.dir_states")
	v["core.table.transitions"] = tr.Count("core.table.transitions")
	v["core.artifact.bytes"] = tr.Count("core.artifact.bytes")
	v["core.artifact.marshal_ms"] = ms(tr.Total("core.artifact.marshal"))
	v["core.artifact.load_ms"] = ms(tr.Total("core.artifact.load"))

	// Elapsed is the search inside each litmus call; the rest of the
	// call is translation, the compound model and its allowed outcomes.
	litmusExplore := tr.Count("litmus.explore_s")
	v["litmus.explore_s"] = litmusExplore
	v["litmus.states"] = tr.Count("litmus.states")
	if calls := tr.Total("litmus.run").Seconds(); calls > 0 {
		v["memmodel.verdict_s"] = calls - litmusExplore
	}

	simRun := tr.Total("sim.run").Seconds()
	msgs := tr.Count("sim.messages")
	v["workload.generate_s"] = tr.Total("workload.generate").Seconds()
	v["sim.run_s"] = simRun
	v["sim.messages"] = msgs
	v["sim.memops"] = tr.Count("sim.memops")
	v["sim.host_ns_per_msg"] = ratio(simRun*1e9, msgs)
	v["sim.cycles"] = tr.Count("sim.cycles")
	v["sim.flits"] = tr.Count("sim.flits")

	for _, p := range []struct {
		sample string
		q      float64
		name   string
	}{
		{"server.queue_wait_ms", 0.5, "server.queue_wait_ms_p50"},
		{"server.queue_wait_ms", 0.9, "server.queue_wait_ms_p90"},
		{"server.run_ms", 0.5, "server.run_ms_p50"},
		{"server.overhead_ms", 0.5, "server.overhead_ms_p50"},
	} {
		if x, ok := percentile(tr.Samples(p.sample), p.q); ok {
			v[p.name] = x
		}
	}
	v["server.cache_hit_ratio"] = ratio(tr.Count("server.cache_hits"), tr.Count("server.compile_jobs"))
	return v
}
