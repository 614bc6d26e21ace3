package serve

import (
	"sync"
	"time"

	"mikpoly/internal/breaker"
)

// breakerSet is the per-model-name breaker registry. One model's circuit:
// consecutive unrecoverable failures open it, opening sheds that model's
// traffic with 503 until the cooldown elapses, then a single half-open probe
// — the next live request — decides between re-closing and re-opening.
// Transient faults healed by the runtime's recovery ladder never reach the
// breaker — only typed unrecoverable failures count, so a
// degraded-but-functional device keeps serving.
type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	byModel   map[string]*breaker.Breaker
	now       func() time.Time // seam for deterministic tests
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		byModel:   make(map[string]*breaker.Breaker),
		now:       time.Now,
	}
}

// allow reports whether a request for the model may proceed. An open
// breaker past its cooldown transitions to half-open and admits exactly one
// probe; concurrent requests during the probe are still shed.
func (bs *breakerSet) allow(model string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.byModel[model]
	return b == nil || b.State() == breaker.Closed || b.BeginProbe(bs.cooldown)
}

// record feeds one request outcome back. Returns true when this outcome
// tripped the breaker open (for the trip counter). While half-open the
// outcome is the probe's verdict.
func (bs *breakerSet) record(model string, ok bool) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.byModel[model]
	if b == nil {
		// Register the model either way: the /metrics state gauge exports a
		// series per model seen, and a closed series is what makes a later
		// open transition legible as 0→1.
		b = breaker.New(bs.threshold)
		b.Now = func() time.Time { return bs.now() }
		bs.byModel[model] = b
	}
	if b.State() == breaker.HalfOpen {
		b.ProbeResult(ok)
		return !ok
	}
	return b.Record(ok)
}

// states lists every model the breaker set has seen with its current state,
// closed included — the /metrics gauge needs the full series so a breaker
// re-closing is visible as a 1→0 transition, not a vanished series.
func (bs *breakerSet) states() map[string]breaker.State {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make(map[string]breaker.State, len(bs.byModel))
	for name, b := range bs.byModel {
		out[name] = b.State()
	}
	return out
}

// snapshot lists the non-closed breakers for /healthz.
func (bs *breakerSet) snapshot() map[string]string {
	var out map[string]string
	for name, st := range bs.states() {
		if st != breaker.Closed {
			if out == nil {
				out = make(map[string]string)
			}
			out[name] = st.String()
		}
	}
	return out
}
