package sched

// Overload defenses: deadline shedding, KV-pressure preemption with a
// parked/restore queue, and the AIMD admission limiter. Each has its own
// Config switch (ShedDeadlines, DisableKVPreempt, Adaptive); preemption is on
// unless opted out, the other two are opt-in. The serving layer runs all
// three; the switches stay for the overload harness, which replays the same
// surge undefended (the reference its goodput check measures against) and
// with preemption alone (the tight-vs-wide arena restore check).

import (
	"errors"
	"fmt"

	"mikpoly/internal/kvcache"
)

// shedLateLocked drops queued requests whose deadline has provably passed:
// time-to-first-token can never undercut the queue wait already incurred,
// so once clock − arrival exceeds the deadline budget the request is a
// guaranteed SLO miss and running it would only steal cycles from requests
// that can still make theirs. Sheds happen strictly before admission, so a
// shed request never touches the KV arena or the device.
func (s *Scheduler) shedLateLocked() {
	if !s.cfg.ShedDeadlines {
		return
	}
	for _, tn := range s.tenants {
		q := s.queues[tn]
		for p := range q {
			kept := q[p][:0]
			for _, st := range q[p] {
				deadline := st.req.DeadlineCycles
				if deadline <= 0 {
					deadline = s.ttftBound
				}
				if s.clock-st.arrival <= deadline {
					kept = append(kept, st)
					continue
				}
				st.done = true
				s.stats.Failed++
				s.stats.DeadlineSheds++
				if s.cfg.RecordEvents {
					s.eventLocked("shed-deadline", st.req.ID,
						fmt.Sprintf("waited %.0f of %.0f cycles", s.clock-st.arrival, deadline))
				}
				res := Result{ID: st.req.ID, Tenant: st.req.Tenant, Err: ErrDeadline}
				if st.deliver != nil {
					st.deliver(res)
				} else {
					s.collected = append(s.collected, res)
				}
			}
			q[p] = kept
		}
	}
}

// availableFracLocked is the fraction of the KV arena still allocatable:
// free pages plus cached (refs == 0, evictable) pages over the arena size.
func (s *Scheduler) availableFracLocked() float64 {
	total := s.kv.Config().NumPages
	if total <= 0 {
		return 1
	}
	kst := s.kv.Stats()
	return float64(kst.FreePages+kst.CachedPages) / float64(total)
}

// leastImportantRunningLocked picks the preemption victim: lowest priority
// class first (numerically highest), then youngest arrival, then highest
// ID — fully deterministic. Returns nil when nothing is running.
func (s *Scheduler) leastImportantRunningLocked() *reqState {
	var v *reqState
	for _, st := range s.running {
		if st.done || st.parked {
			continue
		}
		if v == nil {
			v = st
			continue
		}
		switch {
		case st.req.Priority != v.req.Priority:
			if st.req.Priority > v.req.Priority {
				v = st
			}
		case st.arrival != v.arrival:
			if st.arrival > v.arrival {
				v = st
			}
		case st.req.ID > v.req.ID:
			v = st
		}
	}
	return v
}

// preemptLocked releases every page the request holds through the normal
// refcount machinery and parks it in the restore queue. The generated-token
// history (reqState.gen) is the complete restore recipe; nothing else about
// the request's identity changes, so TTFT, step maxima and SLO state carry
// across the park.
func (s *Scheduler) preemptLocked(st *reqState, detail string) {
	for _, seq := range st.seqs {
		s.kv.Release(seq)
	}
	st.seqs = nil
	st.parked = true
	for i := range s.running {
		if s.running[i] == st {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	s.inflight -= st.mass
	s.parked = append(s.parked, st)
	s.stats.Preemptions++
	s.eventLocked("preempt", st.req.ID, detail)
}

// preemptForPressureLocked is the proactive ladder rung: when allocatable
// pages fall under the low water mark, the least-important running
// requests park until the high water mark is restored. At least one
// request always keeps running so every wave makes progress (and a lone
// restored request can never ping-pong back out).
func (s *Scheduler) preemptForPressureLocked() {
	if s.cfg.DisableKVPreempt || s.availableFracLocked() >= kvLowWater {
		return
	}
	for len(s.running) > 1 && s.availableFracLocked() < kvHighWater {
		v := s.leastImportantRunningLocked()
		if v == nil {
			return
		}
		s.preemptLocked(v, "kv-pressure")
	}
}

// appendWithPreemptLocked appends one decode token, preempting the least-
// important running request on arena exhaustion and retrying. When the
// appending request is itself the least important, it parks instead (its
// own failed token is regenerated deterministically after restore). With
// DisableKVPreempt this is a plain append and exhaustion fails the request.
func (s *Scheduler) appendWithPreemptLocked(st *reqState, seq *kvcache.Sequence, tok int32) error {
	for {
		err := s.kv.Append(seq, tok)
		if err == nil || s.cfg.DisableKVPreempt || !errors.Is(err, kvcache.ErrNoPages) {
			return err
		}
		v := s.leastImportantRunningLocked()
		if v == nil {
			return err
		}
		if v == st {
			s.preemptLocked(st, "append-pressure")
			return nil
		}
		s.preemptLocked(v, "append-pressure")
	}
}

// restoreParkedLocked resumes parked requests in park order by rebuilding
// every branch as a fresh sequence over prompt ++ generated history. KV
// words and decode tokens are pure functions of (token, position), so the
// rebuilt state — and every token decoded after it — is bitwise-identical
// to uninterrupted execution; prefix-cache hits (booked as SavedBytes in
// the eviction ledger) make the rebuild cheap, and the non-reused remainder
// re-runs as ordinary chunked prefill (RecomputedBytes: the other side of
// the trade). Restores wait for the high water mark unless the scheduler is
// otherwise idle, mirroring the preemption hysteresis.
func (s *Scheduler) restoreParkedLocked() {
	for len(s.parked) > 0 {
		if len(s.running) > 0 && !s.cfg.DisableKVPreempt && s.availableFracLocked() < kvHighWater {
			return
		}
		st := s.parked[0]
		seqs := make([]*kvcache.Sequence, 0, len(st.decoded))
		need := 0
		reused := 0
		restored := true
		for b := range st.decoded {
			toks := st.req.Prompt
			if b < len(st.gen) && len(st.gen[b]) > 0 {
				toks = make([]int32, 0, len(st.req.Prompt)+len(st.gen[b]))
				toks = append(toks, st.req.Prompt...)
				toks = append(toks, st.gen[b]...)
			}
			seq, err := s.kv.NewSequence(st.req.Tenant, toks)
			if err != nil {
				restored = false
				break
			}
			seqs = append(seqs, seq)
			need += len(toks) - seq.Reused()
			reused += seq.Reused()
		}
		if !restored {
			for _, seq := range seqs {
				s.kv.Release(seq)
			}
			return // arena still too tight; retry next wave
		}
		s.parked = s.parked[1:]
		st.parked = false
		st.seqs = seqs
		st.need = need
		st.filled = 0
		s.running = append(s.running, st)
		s.inflight += st.mass
		s.stats.Restores++
		s.stats.ReusedTokens += int64(reused)
		if s.cfg.RecordEvents {
			s.eventLocked("restore", st.req.ID,
				fmt.Sprintf("recompute %d tokens, %d reused", need, reused))
		}
	}
}

// adaptLimitLocked is the AIMD step, run once per decode wave: a step-SLO
// violation cuts the admitted-mass ceiling multiplicatively (proportional
// to the overshoot, at most halving), while a comfortably-fast wave grows
// it by one decode bucket — doubled when the EWMA queue wait exceeds half
// the TTFT bound, since a deep queue with fast steps means the limiter is
// the bottleneck, not the device.
func (s *Scheduler) adaptLimitLocked(stepLatency float64) {
	if !s.cfg.Adaptive {
		return
	}
	switch {
	case stepLatency > s.stepBound:
		f := s.stepBound / stepLatency
		if f < 0.5 {
			f = 0.5
		}
		s.limit *= f
		if s.limit < float64(s.cfg.AdaptiveMinTokens) {
			s.limit = float64(s.cfg.AdaptiveMinTokens)
		}
		if s.cfg.RecordEvents {
			s.eventLocked("limit-cut", 0, fmt.Sprintf("limit %.0f tokens", s.limit))
		}
	case stepLatency <= 0.9*s.stepBound:
		add := float64(decodeBucket)
		if s.queueWait > s.ttftBound/2 {
			add *= 2
		}
		s.limit += add
		if s.limit > float64(s.cfg.MaxInFlightTokens) {
			s.limit = float64(s.cfg.MaxInFlightTokens)
		}
	}
}
