package sched

// Event is one overload decision (preempt, restore, shed-deadline,
// limit-cut), recorded when Config.RecordEvents is set. The surge harness
// dumps the log as a CI artifact when an invariant trips.
type Event struct {
	Wave   int64   `json:"wave"`
	Clock  float64 `json:"clock"`
	Kind   string  `json:"kind"`
	ID     uint64  `json:"id,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// eventCap bounds the in-memory log; past it the oldest half is dropped so
// a long surge keeps the tail (the interesting end) without unbounded
// growth.
const eventCap = 8192

func (s *Scheduler) eventLocked(kind string, id uint64, detail string) {
	if !s.cfg.RecordEvents {
		return
	}
	if len(s.events) >= eventCap {
		s.events = append(s.events[:0], s.events[eventCap/2:]...)
	}
	s.events = append(s.events, Event{
		Wave: s.stats.Waves, Clock: s.clock, Kind: kind, ID: id, Detail: detail,
	})
}

// Events snapshots the recorded overload event log.
func (s *Scheduler) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}
