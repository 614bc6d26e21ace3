// Package breaker is the three-state circuit-breaker automaton behind the
// serving layer's per-model breakers. The type holds only the primitive
// transitions; who sends the half-open probe — live traffic in serve — is
// the caller's composition of them.
package breaker

import (
	"sync"
	"time"
)

// State is the classic three-state circuit automaton. The numeric values are
// exported as a metrics gauge (0=closed 1=open 2=half-open).
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker tracks one consecutive-failure streak. Threshold failures in a row
// open it; it stays open until a caller claims the single half-open probe
// with BeginProbe and settles it with ProbeResult.
type Breaker struct {
	mu        sync.Mutex
	state     State
	failures  int
	openedAt  time.Time
	threshold int

	// Now is the clock, a seam for deterministic tests.
	Now func() time.Time
}

// New returns a closed breaker that opens after threshold consecutive
// failures.
func New(threshold int) *Breaker {
	return &Breaker{threshold: threshold, Now: time.Now}
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Record feeds one live-traffic outcome. Returns true when this outcome
// tripped the breaker open. A success closes the breaker and resets the
// streak; failures count only toward opening a closed breaker. Outcomes
// observed while half-open are ignored: that verdict belongs to ProbeResult.
func (b *Breaker) Record(ok bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		return false
	}
	if ok {
		b.state = Closed
		b.failures = 0
		return false
	}
	b.failures++
	if b.state == Closed && b.failures >= b.threshold {
		b.state = Open
		b.openedAt = b.Now()
		b.failures = 0
		return true
	}
	return false
}

// BeginProbe transitions open → half-open when the cooldown has elapsed,
// claiming the single probe slot. Returns false if the breaker is not open
// or still cooling down.
func (b *Breaker) BeginProbe(cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open || b.Now().Sub(b.openedAt) < cooldown {
		return false
	}
	b.state = HalfOpen
	return true
}

// ProbeResult settles a half-open probe: success re-closes, failure re-opens
// with a fresh cooldown. A no-op unless the breaker is half-open.
func (b *Breaker) ProbeResult(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != HalfOpen {
		return
	}
	if ok {
		b.state = Closed
		b.failures = 0
	} else {
		b.state = Open
		b.openedAt = b.Now()
	}
}
