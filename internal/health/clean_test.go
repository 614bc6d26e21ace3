package health

import (
	"math/rand"
	"reflect"
	"testing"

	"mikpoly/internal/sim"
)

// state is everything a registry holds, copied out for comparison.
type state struct {
	streak      []int
	quarantined []bool
	nQuar       int
	bwStreak    int
	bwClear     int
	bwFactor    float64
	bwSeen      float64
	gen         uint64
	stats       Stats
	view        View
}

func snapshot(r *Registry) state {
	r.mu.Lock()
	s := state{
		streak:      append([]int(nil), r.streak...),
		quarantined: append([]bool(nil), r.quarantined...),
		nQuar:       r.nQuar, bwStreak: r.bwStreak, bwClear: r.bwClear,
		bwFactor: r.bwFactor, bwSeen: r.bwSeen, gen: r.gen, stats: r.stats,
	}
	r.mu.Unlock()
	s.view = r.View()
	return s
}

// TestObserveCleanIsExact: over seeded random registry states — streaks
// pending, a derate accruing, a derate adopted, PEs quarantined by streak and
// by death — ObserveClean(n) either refuses and leaves the registry untouched,
// or leaves it exactly as n ObserveResult calls with pristine results would,
// whatever views those results ran under.
func TestObserveCleanIsExact(t *testing.T) {
	const pes = 12
	rng := rand.New(rand.NewSource(7))
	accepted, refused := 0, 0
	for trial := 0; trial < 400; trial++ {
		// Two registries driven through the same history: bulk folds its
		// clean observations in one step, single takes them one by one.
		bulk, single := NewRegistry(pes, Config{}), NewRegistry(pes, Config{})
		var views []View
		for step := rng.Intn(12); step > 0; step-- {
			v := bulk.View()
			views = append(views, v)
			live := pes - len(v.Quarantined)
			r := res(live)
			switch rng.Intn(5) {
			case 0: // one PE faults: a streak starts or grows
				pe := rng.Intn(live)
				r = res(live, pe)
			case 1: // a PE dies mid-run
				r.DeadPEs, r.FaultedTasks = []int{rng.Intn(live)}, 1
			case 2: // brownout
				r.BandwidthDerate = 0.5
			case 3: // a clean run on part of the device
				for pe := range r.PEBusy {
					if rng.Intn(2) == 0 {
						r.PEBusy[pe] = 0
					}
				}
			}
			bulk.ObserveResult(v, r)
			single.ObserveResult(v, r)
		}
		views = append(views, bulk.View())
		if before := snapshot(bulk); !reflect.DeepEqual(before, snapshot(single)) {
			t.Fatalf("trial %d: the two registries diverged before the test began", trial)
		}

		n := 1 + rng.Intn(300)
		before := snapshot(bulk)
		if !bulk.ObserveClean(n) {
			refused++
			if after := snapshot(bulk); !reflect.DeepEqual(before, after) {
				t.Fatalf("trial %d: ObserveClean(%d) refused but changed the registry\nbefore %+v\n after %+v", trial, n, before, after)
			}
			continue
		}
		accepted++
		for i := 0; i < n; i++ {
			v := views[rng.Intn(len(views))] // the current view or a stale one
			r := sim.Result{NumTasks: 1, PEBusy: make([]float64, pes-len(v.Quarantined))}
			for pe := range r.PEBusy {
				r.PEBusy[pe] = float64(rng.Intn(3))
			}
			if c := single.ObserveResult(v, r); c != Healthy {
				t.Fatalf("trial %d: a pristine result classified %v", trial, c)
			}
		}
		if got, want := snapshot(bulk), snapshot(single); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ObserveClean(%d) accepted\n     got %+v\none by one %+v", trial, n, got, want)
		}
	}
	if accepted < 50 || refused < 50 {
		t.Fatalf("%d accepted, %d refused: the states drawn do not exercise both answers", accepted, refused)
	}
}
