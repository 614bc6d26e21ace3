// Package health tracks accelerator degradation observed by the simulator
// and condenses it into a *degraded hardware view* the planner can re-target.
//
// MikPoly's online stage prices candidate programs with Cost(S, H) — the
// hardware abstraction H = (P_multi, M_local, M_global) is a planner input,
// not a constant (PAPER.md §4). That makes degradation a planning problem:
// when a PE dies or bandwidth browns out, the cheapest correct response is
// not to retry blindly but to re-derive the program against
// H' = (P_multi − quarantined, M_local, derated M_global).
//
// The registry classifies fault outcomes from sim.Result into transient
// (salt-varying, a retry clears them) and persistent (streaks concentrated
// on few PEs, mid-run deaths, repeated bandwidth derates), quarantines PEs
// crossing the streak threshold, and exposes the current View with a stable
// fingerprint for keying program caches. All methods are safe for concurrent
// use.
package health

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
)

// Classification is the registry's verdict on one observed execution.
type Classification int

const (
	// Healthy: the run completed with no faults.
	Healthy Classification = iota
	// Transient: faults occurred but look systemic or salt-clearable — a
	// retry with a fresh salt is the right response.
	Transient
	// Persistent: the run carries evidence of lasting degradation (PE
	// death, a streak crossing the quarantine threshold, adopted
	// bandwidth derate) — replanning against the degraded view is the
	// right response.
	Persistent
)

func (c Classification) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case Transient:
		return "transient"
	default:
		return "persistent"
	}
}

// Config tunes the registry's classification thresholds. Zero values select
// the defaults.
type Config struct {
	// StreakThreshold is the number of consecutive faulty observations a
	// PE must accrue before it is quarantined. Default 3.
	StreakThreshold int

	// BandwidthStreak is the number of consecutive derated observations
	// before the registry adopts the derate into the view (and the number
	// of consecutive clean ones before it lifts it). Default 2.
	BandwidthStreak int
}

func (c Config) withDefaults() Config {
	if c.StreakThreshold <= 0 {
		c.StreakThreshold = 3
	}
	if c.BandwidthStreak <= 0 {
		c.BandwidthStreak = 2
	}
	return c
}

// Stats is a snapshot of the registry's counters.
type Stats struct {
	Observations uint64 // total ObserveResult calls
	Transients   uint64 // observations classified Transient
	Persistents  uint64 // observations classified Persistent
	Quarantines  uint64 // PEs quarantined over the registry's lifetime
	BWAdoptions  uint64 // bandwidth derates adopted into the view
	Generation   uint64 // view-change counter (0 = pristine)
	Quarantined  int    // currently quarantined PEs
}

// Registry accumulates per-PE fault evidence and maintains the degraded
// view. One registry serves one device (numPEs is the base P_multi).
type Registry struct {
	mu  sync.Mutex
	n   int
	cfg Config

	streak      []int  // consecutive faulty observations per base PE
	quarantined []bool // per base PE
	nQuar       int

	bwStreak int     // consecutive observations carrying a derate
	bwClear  int     // consecutive clean observations since a derate
	bwFactor float64 // adopted view factor, 1 = full bandwidth
	bwSeen   float64 // most recent observed derate (candidate factor)

	gen   uint64
	stats Stats
}

// NewRegistry creates a registry for a device with numPEs processing
// elements.
func NewRegistry(numPEs int, cfg Config) *Registry {
	if numPEs <= 0 {
		panic("health: registry needs at least one PE")
	}
	return &Registry{
		n:           numPEs,
		cfg:         cfg.withDefaults(),
		streak:      make([]int, numPEs),
		quarantined: make([]bool, numPEs),
		bwFactor:    1,
	}
}

// ObserveResult folds one simulated execution into the registry. v must be
// the view the run was planned and executed under: the result's PE indices
// are positions in that view's survivor set, and are translated back to base
// PE ids before attribution. Returns the classification of this observation.
func (r *Registry) ObserveResult(v View, res sim.Result) Classification {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Observations++

	survivors := r.survivorsFor(v)
	changed := false
	persistent := false

	// Mid-run deaths are unambiguous: quarantine immediately.
	for _, pe := range res.DeadPEs {
		base, ok := mapPE(survivors, pe)
		if !ok {
			continue
		}
		persistent = true
		if r.quarantineLocked(base) {
			changed = true
		}
	}

	// Streak bookkeeping. Faults concentrated on few PEs are a hardware
	// signal; a uniform storm (many PEs faulting at once) is systemic —
	// workload- or injection-level — and must not poison per-PE streaks,
	// or a high transient rate would quarantine the whole device.
	faulty := 0
	for _, n := range res.PEFaults {
		if n > 0 {
			faulty++
		}
	}
	live := r.n - r.nQuar
	concentrated := faulty > 0 && faulty <= maxInt(1, live/4)
	nPE := len(res.PEBusy)
	if len(res.PEFaults) > nPE {
		nPE = len(res.PEFaults)
	}
	for pe := 0; pe < nPE; pe++ {
		base, ok := mapPE(survivors, pe)
		if !ok || r.quarantined[base] {
			continue
		}
		nFaults := 0
		if pe < len(res.PEFaults) {
			nFaults = res.PEFaults[pe]
		}
		switch {
		case nFaults == 0:
			// The PE ran clean this observation (if it ran at all):
			// streaks are *consecutive* evidence.
			if pe < len(res.PEBusy) && res.PEBusy[pe] > 0 {
				r.streak[base] = 0
			}
		case concentrated:
			r.streak[base]++
			if r.streak[base] >= r.cfg.StreakThreshold {
				persistent = true
				if r.quarantineLocked(base) {
					changed = true
				}
			}
		}
	}

	// Bandwidth derate hysteresis.
	if res.BandwidthDerate > 0 && res.BandwidthDerate < 1 {
		r.bwStreak++
		r.bwClear = 0
		r.bwSeen = res.BandwidthDerate
		if r.bwStreak >= r.cfg.BandwidthStreak && r.bwFactor != r.bwSeen {
			r.bwFactor = r.bwSeen
			r.stats.BWAdoptions++
			persistent = true
			changed = true
		}
	} else {
		r.bwClear++
		r.bwStreak = 0
		if r.bwClear >= r.cfg.BandwidthStreak && r.bwFactor != 1 {
			r.bwFactor = 1
			changed = true
		}
	}

	if changed {
		r.gen++
		r.stats.Generation = r.gen
	}
	switch {
	case persistent:
		r.stats.Persistents++
		return Persistent
	case !res.Clean():
		r.stats.Transients++
		return Transient
	default:
		return Healthy
	}
}

// ObserveClean folds n observations of pristine results (no faulted or
// stranded task, no dead PE, no per-PE fault, no bandwidth derate) in one
// locked step, under whichever views they ran. It does so only while the
// registry holds no pending evidence — every live PE's streak zero (a
// quarantined PE's is frozen, ObserveResult skips it), no derate accruing or
// adopted: one such ObserveResult then resets streaks that are already zero
// and compares a bandwidth factor that is already 1, so n of them change
// exactly the observation and clean-run counters. Otherwise it reports false
// and has changed nothing; the caller observes its results one by one.
func (r *Registry) ObserveClean(n int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bwStreak != 0 || r.bwFactor != 1 {
		return false
	}
	for pe, s := range r.streak {
		if s != 0 && !r.quarantined[pe] {
			return false
		}
	}
	r.stats.Observations += uint64(n)
	r.bwClear += n
	return true
}

// quarantineLocked marks a base PE quarantined, refusing to take the last
// live PE offline (a 0-PE view is unplannable; the planner's job is to
// degrade gracefully, not to halt). Returns whether the view changed.
func (r *Registry) quarantineLocked(base int) bool {
	if r.quarantined[base] || r.nQuar >= r.n-1 {
		return false
	}
	r.quarantined[base] = true
	r.nQuar++
	r.stats.Quarantines++
	return true
}

// survivorsFor returns the base-PE ids the given view's PE indices refer to,
// or nil when the view is the full device (identity mapping).
func (r *Registry) survivorsFor(v View) []int {
	if len(v.Quarantined) == 0 {
		return nil
	}
	quar := make(map[int]bool, len(v.Quarantined))
	for _, pe := range v.Quarantined {
		quar[pe] = true
	}
	out := make([]int, 0, r.n)
	for pe := 0; pe < r.n; pe++ {
		if !quar[pe] {
			out = append(out, pe)
		}
	}
	return out
}

func mapPE(survivors []int, pe int) (int, bool) {
	if survivors == nil {
		return pe, true
	}
	if pe < 0 || pe >= len(survivors) {
		return 0, false
	}
	return survivors[pe], true
}

// View returns the current degraded hardware view.
func (r *Registry) View() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := View{NumPEs: r.n, BandwidthFactor: r.bwFactor, Generation: r.gen}
	for pe, q := range r.quarantined {
		if q {
			v.Quarantined = append(v.Quarantined, pe)
		}
	}
	return v
}

// Stats returns a snapshot of the counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Quarantined = r.nQuar
	return s
}

// View is an immutable snapshot of the degraded hardware state:
// H' = (NumPEs − |Quarantined|, M_local, BandwidthFactor · M_global).
type View struct {
	// NumPEs is the base device PE count the quarantine indices refer to.
	NumPEs int
	// Quarantined lists quarantined base PE ids, sorted ascending.
	Quarantined []int
	// BandwidthFactor scales global bandwidth, in (0, 1]; 1 = full.
	BandwidthFactor float64
	// Generation is the registry's view-change counter at snapshot time.
	Generation uint64
}

// Healthy reports whether the view is the pristine device.
func (v View) Healthy() bool {
	return len(v.Quarantined) == 0 && (v.BandwidthFactor == 0 || v.BandwidthFactor >= 1)
}

// Fingerprint is a stable, human-readable key for the degraded state —
// empty for the healthy view, e.g. "q1,3|bw0.60" for PEs 1 and 3
// quarantined under a 0.6 bandwidth derate. Program caches key on it so
// healthy-mode and degraded-mode plans never cross-contaminate.
func (v View) Fingerprint() string {
	if v.Healthy() {
		return ""
	}
	var b strings.Builder
	if len(v.Quarantined) > 0 {
		q := append([]int(nil), v.Quarantined...)
		sort.Ints(q)
		b.WriteByte('q')
		for i, pe := range q {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", pe)
		}
	}
	if v.BandwidthFactor > 0 && v.BandwidthFactor < 1 {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "bw%.2f", v.BandwidthFactor)
	}
	return b.String()
}

// Apply derives the degraded hardware H' from the base device: survivors
// only (never fewer than one PE) and derated global bandwidth. M_local is
// untouched — quarantining removes PEs, it does not shrink the ones left.
func (v View) Apply(h hw.Hardware) hw.Hardware {
	drop := 0
	for _, pe := range v.Quarantined {
		if pe >= 0 && pe < h.NumPEs {
			drop++
		}
	}
	if h.NumPEs-drop < 1 {
		drop = h.NumPEs - 1
	}
	h.NumPEs -= drop
	if v.BandwidthFactor > 0 && v.BandwidthFactor < 1 {
		h.GlobalBytesPerCycle *= v.BandwidthFactor
	}
	return h
}

// RemapFaults translates a fault config expressed in base-PE ids into the
// view's survivor numbering, so a schedule injected at the serve layer stays
// meaningful when a stage executes on the shrunken H'. Entries addressing
// quarantined PEs are dropped — that hardware no longer takes part — and
// device-wide knobs (seed, salt, rates, bandwidth, brownout) pass through.
func (v View) RemapFaults(f sim.Faults) sim.Faults {
	if len(v.Quarantined) == 0 {
		return f
	}
	quar := make(map[int]bool, len(v.Quarantined))
	for _, pe := range v.Quarantined {
		quar[pe] = true
	}
	rank := make(map[int]int, v.NumPEs)
	next := 0
	for pe := 0; pe < v.NumPEs; pe++ {
		if !quar[pe] {
			rank[pe] = next
			next++
		}
	}

	out := f
	out.DropPEs = nil
	for _, pe := range f.DropPEs {
		if r, ok := rank[pe]; ok {
			out.DropPEs = append(out.DropPEs, r)
		}
	}
	out.SlowPE = remapMap(f.SlowPE, rank)
	out.PEDeathCycle = remapMap(f.PEDeathCycle, rank)
	out.StickyFaults = remapMap(f.StickyFaults, rank)
	return out
}

func remapMap[V any](m map[int]V, rank map[int]int) map[int]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]V, len(m))
	for pe, val := range m {
		if r, ok := rank[pe]; ok {
			out[r] = val
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
