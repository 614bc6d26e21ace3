package serve

import "mikpoly/internal/obs"

// registerOverloadObs exports the overload-defense series. Like every other
// bridge in obs.go the callbacks re-resolve the scheduler pointer at scrape
// time, so a rebound compiler is picked up and a sched-less server scrapes
// zeros rather than panicking.
func (s *Server) registerOverloadObs() {
	m := s.o.M()
	if m == nil {
		return
	}
	one := func(v float64) []obs.Sample { return []obs.Sample{{Value: v}} }

	m.Collect("mik_overload_sheds_total", "Requests shed by overload defenses, by reason.", "counter",
		func() []obs.Sample {
			var deadline int64
			if l := s.sched.Load(); l != nil {
				deadline = l.Scheduler().Stats().DeadlineSheds
			}
			return []obs.Sample{{Labels: [][2]string{{"reason", "deadline"}}, Value: float64(deadline)}}
		})
	m.Collect("mik_overload_preemptions_total", "KV-pressure preemption parks and prefix-recompute restores.", "counter",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			ss := l.Scheduler().Stats()
			return []obs.Sample{
				{Labels: [][2]string{{"kind", "preempt"}}, Value: float64(ss.Preemptions)},
				{Labels: [][2]string{{"kind", "restore"}}, Value: float64(ss.Restores)},
			}
		})
	m.Collect("mik_overload_adaptive_limit_tokens", "AIMD admission limiter's current token ceiling.", "gauge",
		func() []obs.Sample {
			l := s.sched.Load()
			if l == nil {
				return nil
			}
			return one(float64(l.Scheduler().Stats().AdaptiveLimitTokens))
		})
}
