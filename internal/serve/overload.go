package serve

import (
	"time"

	"mikpoly/internal/breaker"
	"mikpoly/internal/obs"
)

// The brownout ladder degrades the service in ordered stages as the overload
// signal climbs, and climbs back down with hysteresis as it clears. Each
// stage sheds progressively more optional work before any request is turned
// away, so the last rung (dropping the lowest tenant class) is reached only
// when cheaper degradation has already failed to relieve pressure:
//
//	stage 1: disable span tracing (observability overhead first)
//	stage 2: shrink the prefill chunk cap (protect decode-step latency)
//	stage 3: stretch fleet hedge delays ×2 (halve duplicate dispatches)
//	stage 4: shed the lowest-priority /generate class with 503
//
// Stage transitions up are immediate — overload punishes hesitation — while
// transitions down require the signal to fall below the stage's entry
// threshold minus brownoutExitGap for brownoutDwell consecutive ticks, so a
// load level oscillating around one threshold cannot flap the ladder.
const (
	brownoutStages   = 4
	brownoutExitGap  = 0.10
	brownoutDwell    = 5
	brownoutInterval = 25 * time.Millisecond

	// brownoutShedStage is the rung at which low-class /generate load sheds.
	brownoutShedStage = 4
)

// brownoutEnter[i] is the signal threshold that enters stage i+1.
var brownoutEnter = [brownoutStages]float64{0.70, 0.80, 0.90, 0.97}

// nextBrownoutStage is the pure ladder automaton: given the current stage,
// the consecutive-calm-tick count, and the instantaneous overload signal, it
// returns the next stage and updated dwell counter. Split from the ticker so
// the hysteresis is unit-testable without wall clocks.
func nextBrownoutStage(cur, dwell int, signal float64) (int, int) {
	up := 0
	for s := brownoutStages; s >= 1; s-- {
		if signal >= brownoutEnter[s-1] {
			up = s
			break
		}
	}
	if up > cur {
		return up, 0
	}
	if cur > 0 && signal < brownoutEnter[cur-1]-brownoutExitGap {
		if dwell++; dwell >= brownoutDwell {
			return cur - 1, 0
		}
		return cur, dwell
	}
	return cur, 0
}

// overloadSignal folds the server's load indicators into one [0,1+] scalar:
// the worst of HTTP admission occupancy, scheduler backlog drain time as a
// fraction of the TTFT bound, KV arena occupancy, and the fraction of model
// breakers currently open. Taking the max (not a blend) means any single
// saturated resource is enough to climb the ladder.
func (s *Server) overloadSignal() float64 {
	sig := float64(len(s.sem)) / float64(cap(s.sem))
	if l := s.sched.Load(); l != nil {
		sc := l.Scheduler()
		if bound := sc.Config().TTFTSLOMs / 1e3; bound > 0 {
			if f := sc.EstimateBacklogSeconds() / bound; f > sig {
				sig = f
			}
		}
		ks := sc.KV().Stats()
		if ks.Pages > 0 {
			if occ := 1 - float64(ks.FreePages+ks.CachedPages)/float64(ks.Pages); occ > sig {
				sig = occ
			}
		}
	}
	if states := s.breakers.states(); len(states) > 0 {
		open := 0
		for _, st := range states {
			if st == breaker.Open {
				open++
			}
		}
		if f := float64(open) / float64(len(states)); f > sig {
			sig = f
		}
	}
	return sig
}

// OverloadStage reports the ladder's current stage (0 = normal operation).
func (s *Server) OverloadStage() int { return int(s.overStage.Load()) }

// setBrownoutStage applies the target stage's cumulative actions. Actions
// are idempotent and derived from the target alone (not deltas), so a stage
// jump of more than one rung — or a re-application after SetCompiler swaps
// the scheduler — lands in the right configuration.
func (s *Server) setBrownoutStage(target int) {
	old := int(s.overStage.Swap(int32(target)))
	if old == target {
		return
	}
	if t := s.o.T(); t != nil && s.tracerWasOn {
		t.SetEnabled(target < 1)
	}
	if l := s.sched.Load(); l != nil {
		sc := l.Scheduler()
		if target >= 2 {
			sc.SetChunkCap(sc.Config().PrefillChunk / 4)
		} else {
			sc.SetChunkCap(0)
		}
	}
	if f := s.fleetD(); f != nil {
		if target >= 3 {
			f.SetHedgeScale(2)
		} else {
			f.SetHedgeScale(1)
		}
	}
}

// startBrownout runs the ladder controller: every tick it folds the load
// signals and steps the automaton. The dwell counter lives in the goroutine —
// it is meaningless between restarts.
func (s *Server) startBrownout() {
	s.tracerWasOn = s.o.T().Enabled()
	s.overWG.Add(1)
	go func() {
		defer s.overWG.Done()
		tick := time.NewTicker(brownoutInterval)
		defer tick.Stop()
		dwell := 0
		for {
			select {
			case <-s.overQuit:
				return
			case <-tick.C:
				cur := int(s.overStage.Load())
				next, nd := nextBrownoutStage(cur, dwell, s.overloadSignal())
				dwell = nd
				if next != cur {
					s.setBrownoutStage(next)
				}
			}
		}
	}()
}

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

	m.Collect("mik_overload_stage", "Brownout ladder stage (0 = normal, 4 = shedding lowest class).", "gauge",
		func() []obs.Sample { return one(float64(s.overStage.Load())) })
	m.Collect("mik_overload_sheds_total", "Requests shed by overload defenses, by reason.", "counter",
		func() []obs.Sample {
			var deadline int64
			if l := s.sched.Load(); l != nil {
				deadline = l.Scheduler().Stats().DeadlineSheds
			}
			return []obs.Sample{
				{Labels: [][2]string{{"reason", "deadline"}}, Value: float64(deadline)},
				{Labels: [][2]string{{"reason", "brownout"}}, Value: float64(s.nBrownoutSheds.Load())},
			}
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
