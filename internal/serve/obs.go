package serve

import (
	"sort"
	"strconv"
	"time"

	"mikpoly/internal/obs"
)

// registerObs exports the server's counters, the compiler's cache/health
// stats, and the graph runtime's aggregates into the observability registry.
// Everything that already lives behind a mutex or atomic is bridged with
// scrape-time Collect callbacks reading live snapshots — no second set of
// books to keep consistent, and a rebound compiler (SetCompiler) is picked up
// automatically because the callbacks re-resolve through the atomic pointers.
func (s *Server) registerObs() {
	m := s.o.M()
	if m == nil {
		return
	}

	one := func(v float64) []obs.Sample { return []obs.Sample{{Value: v}} }

	m.Collect("mik_serve_requests_total", "Admitted plan/execute/model requests.", "counter",
		func() []obs.Sample { return one(float64(s.nRequests.Load())) })
	m.Collect("mik_serve_rejected_total", "Requests refused by admission control (429).", "counter",
		func() []obs.Sample { return one(float64(s.nRejected.Load())) })
	m.Collect("mik_serve_degraded_total", "Responses served via the fallback program.", "counter",
		func() []obs.Sample { return one(float64(s.nDegraded.Load())) })
	m.Collect("mik_serve_retries_total", "Fault-triggered re-plan attempts.", "counter",
		func() []obs.Sample { return one(float64(s.nRetries.Load())) })
	m.Collect("mik_serve_faulted_runs_total", "Simulated runs reporting at least one faulted task.", "counter",
		func() []obs.Sample { return one(float64(s.nFaults.Load())) })
	m.Collect("mik_serve_panics_total", "Handler panics recovered.", "counter",
		func() []obs.Sample { return one(float64(s.nPanics.Load())) })
	m.Collect("mik_serve_models_total", "Model graphs executed via /model.", "counter",
		func() []obs.Sample { return one(float64(s.nModels.Load())) })
	m.Collect("mik_serve_in_flight", "Requests currently admitted.", "gauge",
		func() []obs.Sample { return one(float64(len(s.sem))) })
	m.Collect("mik_serve_uptime_seconds", "Seconds since server construction.", "gauge",
		func() []obs.Sample { return one(time.Since(s.started).Seconds()) })

	m.Collect("mik_cache_entries", "Program cache size and capacity.", "gauge",
		func() []obs.Sample {
			c := s.comp()
			if c == nil {
				return nil
			}
			cs := c.CacheStats()
			return []obs.Sample{
				{Labels: [][2]string{{"state", "used"}}, Value: float64(cs.Size)},
				{Labels: [][2]string{{"state", "capacity"}}, Value: float64(cs.Capacity)},
			}
		})
	m.Collect("mik_cache_ops_total", "Program cache hits, misses, and evictions.", "counter",
		func() []obs.Sample {
			c := s.comp()
			if c == nil {
				return nil
			}
			cs := c.CacheStats()
			return []obs.Sample{
				{Labels: [][2]string{{"op", "hit"}}, Value: float64(cs.Hits)},
				{Labels: [][2]string{{"op", "miss"}}, Value: float64(cs.Misses)},
				{Labels: [][2]string{{"op", "eviction"}}, Value: float64(cs.Evictions)},
			}
		})

	m.Collect("mik_graph_executions_total", "Graphs executed by the graph runtime.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			return one(float64(rt.Stats().Graphs))
		})
	m.Collect("mik_graph_compiled_ops_total", "Compiled-execution table hits (replays), misses (interpretations) and evictions.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			cs := rt.Stats().Compiled
			return []obs.Sample{
				{Labels: [][2]string{{"op", "hit"}}, Value: float64(cs.Hits)},
				{Labels: [][2]string{{"op", "miss"}}, Value: float64(cs.Misses)},
				{Labels: [][2]string{{"op", "eviction"}}, Value: float64(cs.Evictions)},
			}
		})
	m.Collect("mik_graph_compiled_entries", "Compiled executions the graph runtime holds.", "gauge",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			return one(float64(rt.Stats().Compiled.Size))
		})
	m.Collect("mik_graph_plan_wall_seconds", "Plan-ahead wall-time split: total planning, executor stalls, and the portion hidden behind execution.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			gs := rt.Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"kind", "plan"}}, Value: gs.PlanWall.Seconds()},
				{Labels: [][2]string{{"kind", "stall"}}, Value: gs.StallWall.Seconds()},
				{Labels: [][2]string{{"kind", "hidden"}}, Value: gs.HiddenWall.Seconds()},
			}
		})
	m.Collect("mik_graph_device_cycles_total", "Cumulative simulated device cycles across graph executions.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			return one(rt.Stats().Cycles)
		})
	m.Collect("mik_graph_spill_bytes_total", "Memory-planner spill traffic across graph executions.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			return one(rt.Stats().SpillBytes)
		})
	m.Collect("mik_pe_utilization", "Per-PE busy fraction of cumulative co-scheduled stage time.", "gauge",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			u := rt.Stats().PEUtilization()
			samples := make([]obs.Sample, len(u))
			for i, v := range u {
				samples[i] = obs.Sample{Labels: [][2]string{{"pe", strconv.Itoa(i)}}, Value: v}
			}
			return samples
		})
	m.Collect("mik_wave_imbalance", "Relative spread (max-min)/max of cumulative per-PE busy cycles.", "gauge",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			return one(rt.Stats().WaveImbalance())
		})

	m.Collect("mik_health_quarantined_pes", "PEs currently quarantined by the health registry.", "gauge",
		func() []obs.Sample {
			reg := s.health.Load()
			if reg == nil {
				return nil
			}
			return one(float64(reg.Stats().Quarantined))
		})
	m.Collect("mik_health_bandwidth_factor", "Adopted global-bandwidth derate factor (1 = pristine).", "gauge",
		func() []obs.Sample {
			reg := s.health.Load()
			if reg == nil {
				return nil
			}
			return one(reg.View().BandwidthFactor)
		})
	m.Collect("mik_health_generation", "Health-view generation (0 = pristine, bumps on every view change).", "counter",
		func() []obs.Sample {
			reg := s.health.Load()
			if reg == nil {
				return nil
			}
			return one(float64(reg.Stats().Generation))
		})
	m.Collect("mik_health_observations_total", "Stage outcomes fed to the health registry, by classification.", "counter",
		func() []obs.Sample {
			reg := s.health.Load()
			if reg == nil {
				return nil
			}
			hs := reg.Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"class", "transient"}}, Value: float64(hs.Transients)},
				{Labels: [][2]string{{"class", "persistent"}}, Value: float64(hs.Persistents)},
				{Labels: [][2]string{{"class", "clean"}}, Value: float64(hs.Observations - hs.Transients - hs.Persistents)},
			}
		})
	m.Collect("mik_recovery_stages_total", "Stage-recovery ladder outcomes by rung.", "counter",
		func() []obs.Sample {
			rt := s.runtime.Load()
			if rt == nil {
				return nil
			}
			gs := rt.Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"outcome", "retried"}}, Value: float64(gs.RetriedStages)},
				{Labels: [][2]string{{"outcome", "migrated"}}, Value: float64(gs.MigratedStages)},
				{Labels: [][2]string{{"outcome", "replanned"}}, Value: float64(gs.ReplannedStages)},
				{Labels: [][2]string{{"outcome", "unrecoverable"}}, Value: float64(gs.UnrecoverableStages)},
			}
		})
	m.Collect("mik_health_replans_total", "Background replans triggered by health-view changes and plans executed against a degraded view.", "counter",
		func() []obs.Sample {
			c := s.comp()
			if c == nil {
				return nil
			}
			ch := c.Health()
			return []obs.Sample{
				{Labels: [][2]string{{"kind", "background"}}, Value: float64(ch.Replans)},
				{Labels: [][2]string{{"kind", "degraded"}}, Value: float64(ch.DegradedPlans)},
			}
		})
	m.Collect("mik_breaker_events_total", "Circuit-breaker open transitions and requests shed while open.", "counter",
		func() []obs.Sample {
			return []obs.Sample{
				{Labels: [][2]string{{"event", "trip"}}, Value: float64(s.nBreakerTrips.Load())},
				{Labels: [][2]string{{"event", "drop"}}, Value: float64(s.nBreakerDrops.Load())},
			}
		})
	m.Collect("mik_serve_breaker_state", "Per-model circuit-breaker state (0=closed 1=open 2=half-open).", "gauge",
		func() []obs.Sample {
			states := s.breakers.states()
			names := make([]string, 0, len(states))
			for name := range states {
				names = append(names, name)
			}
			sort.Strings(names)
			samples := make([]obs.Sample, len(names))
			for i, name := range names {
				samples[i] = obs.Sample{
					Labels: [][2]string{{"model", name}},
					Value:  float64(states[name]),
				}
			}
			return samples
		})

	m.Collect("mik_kv_pages", "Paged KV arena occupancy by page state.", "gauge",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ks := l.Scheduler().KV().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"state", "active"}}, Value: float64(ks.ActivePages)},
				{Labels: [][2]string{{"state", "cached"}}, Value: float64(ks.CachedPages)},
				{Labels: [][2]string{{"state", "free"}}, Value: float64(ks.FreePages)},
			}
		})
	m.Collect("mik_kv_prefix_hit_tokens_total", "Prompt tokens served from shared KV pages instead of recomputed.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			return one(float64(l.Scheduler().KV().Stats().PrefixHitTokens))
		})
	m.Collect("mik_kv_cow_copies_total", "Copy-on-write page copies on shared-page divergence.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			return one(float64(l.Scheduler().KV().Stats().COWCopies))
		})
	m.Collect("mik_kv_evictions_total", "Cached (refs==0) KV pages reclaimed under arena pressure.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			return one(float64(l.Scheduler().KV().Stats().Evictions))
		})
	m.Collect("mik_kv_bytes_total", "Exact sharing economics: KV bytes saved by prefix reuse vs recomputed after eviction.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ks := l.Scheduler().KV().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"kind", "saved"}}, Value: float64(ks.SavedBytes)},
				{Labels: [][2]string{{"kind", "recomputed"}}, Value: float64(ks.RecomputedBytes)},
			}
		})
	m.Collect("mik_sched_requests_total", "Generation-scheduler request outcomes.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ss := l.Scheduler().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"outcome", "admitted"}}, Value: float64(ss.Admitted)},
				{Labels: [][2]string{{"outcome", "completed"}}, Value: float64(ss.Completed)},
				{Labels: [][2]string{{"outcome", "failed"}}, Value: float64(ss.Failed)},
				{Labels: [][2]string{{"outcome", "slo_good"}}, Value: float64(ss.SLOGood)},
				{Labels: [][2]string{{"outcome", "token_rejected"}}, Value: float64(s.nTokenRejected.Load())},
			}
		})
	m.Collect("mik_sched_inflight_tokens", "Token-budget admission occupancy (prompt + generation tokens in flight).", "gauge",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ss := l.Scheduler().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"state", "used"}}, Value: float64(ss.InFlightTokens)},
				{Labels: [][2]string{{"state", "budget"}}, Value: float64(ss.BudgetTokens)},
			}
		})
	m.Collect("mik_sched_tokens_total", "Scheduler token flow: prefill executed, prefix-reused, decode steps.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ss := l.Scheduler().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"kind", "prefill"}}, Value: float64(ss.PrefillTokens)},
				{Labels: [][2]string{{"kind", "reused"}}, Value: float64(ss.ReusedTokens)},
				{Labels: [][2]string{{"kind", "decode"}}, Value: float64(ss.DecodeSteps)},
				{Labels: [][2]string{{"kind", "padded"}}, Value: float64(ss.PaddedKVTokens)},
			}
		})
	m.Collect("mik_sched_step_latency_ms", "Decode-step latency quantiles on the virtual device clock.", "gauge",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			sc := l.Scheduler()
			return []obs.Sample{
				{Labels: [][2]string{{"q", "p50"}}, Value: sc.StepQuantileMs(0.50)},
				{Labels: [][2]string{{"q", "p99"}}, Value: sc.StepQuantileMs(0.99)},
			}
		})

	s.registerOverloadObs()
}
