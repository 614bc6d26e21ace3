package fleet

import (
	"context"
	"testing"
	"time"

	"mikpoly/internal/breaker"
)

// These tests pin the hedge double-booking fix: a request that hedges has ONE
// winner, and only the winner's outcome enters the success/latency books. The
// run functions are channel-gated so the interleaving is deterministic: the
// primary cannot finish before the hedge launches, and the hedge cannot
// finish before the attempt has already returned with the primary's result.

// TestHedgeLateLoserSuccessExcluded: the penalized primary wins, the hedge
// finishes late and successfully. Neither outcome may touch the latency EWMAs
// (the primary's duration is inflated past its hedge delay, the hedge's by
// losing the race), the hedge-fire strike on the primary must stand even
// though it ultimately succeeded, and the late hedge success must not count
// as a hedge win.
func TestHedgeLateLoserSuccessExcluded(t *testing.T) {
	cfg := fastCfg()
	cfg.HedgeAfter = 2 * time.Millisecond
	cfg.BreakerThreshold = 1 // one hedge strike opens the primary's breaker
	f := newTestFleet(t, 2, nil, cfg, true)
	primary, hedge := f.devices[0], f.devices[1]

	hedgeLaunched := make(chan struct{})
	release := make(chan struct{})
	hedgeDone := make(chan struct{})
	run := func(ctx context.Context, d *Device, salt uint64) (any, error) {
		if d == primary {
			<-hedgeLaunched
			return "primary", nil
		}
		close(hedgeLaunched)
		defer close(hedgeDone)
		<-release
		return "hedge", nil
	}

	v, winner, launched, err := f.attempt(context.Background(),
		primary, map[*Device]bool{primary: true}, "", run, 1)
	if err != nil || v != "primary" || winner != primary || launched != 2 {
		t.Fatalf("attempt = (%v, %v, %d, %v), want (primary, primary, 2, nil)", v, winner, launched, err)
	}

	close(release)
	<-hedgeDone
	time.Sleep(20 * time.Millisecond) // let the settle drain process the late outcome

	if got := f.lat[f.idx[primary]].get(); got != 0 {
		t.Errorf("penalized primary fed the latency EWMA: %v (its duration includes the hedge delay)", got)
	}
	if got := f.lat[f.idx[hedge]].get(); got != 0 {
		t.Errorf("losing hedge fed the latency EWMA: %v (its duration includes losing the race)", got)
	}
	if st := f.BreakerState(primary.name); st != breaker.Open {
		t.Errorf("primary breaker = %s, want open (late success must not erase the hedge strike)", st)
	}
	if st := f.BreakerState(hedge.name); st != breaker.Closed {
		t.Errorf("hedge breaker = %s, want closed (a late success is not a fault)", st)
	}
	stats := f.DispatchStats()
	if stats.Hedges != 1 || stats.HedgeWins != 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1 and 0 (the hedge lost)", stats.Hedges, stats.HedgeWins)
	}
}

// TestHedgeLateLoserFaultStillStrikes: the hedge loses the race and then
// crashes. Losing does not launder the crash — the hedge's breaker must trip
// even though its outcome arrived after the request already had a winner.
func TestHedgeLateLoserFaultStillStrikes(t *testing.T) {
	cfg := fastCfg()
	cfg.HedgeAfter = 2 * time.Millisecond
	f := newTestFleet(t, 2, nil, cfg, true)
	primary, hedge := f.devices[0], f.devices[1]

	hedgeLaunched := make(chan struct{})
	release := make(chan struct{})
	run := func(ctx context.Context, d *Device, salt uint64) (any, error) {
		if d == primary {
			<-hedgeLaunched
			return "primary", nil
		}
		close(hedgeLaunched)
		<-release
		return nil, ErrDeviceCrashed
	}

	if _, winner, _, err := f.attempt(context.Background(),
		primary, map[*Device]bool{primary: true}, "", run, 1); err != nil || winner != primary {
		t.Fatalf("attempt winner = %v (err %v), want primary", winner, err)
	}
	close(release)

	deadline := time.Now().Add(2 * time.Second)
	for f.BreakerState(hedge.name) != breaker.Open {
		if time.Now().After(deadline) {
			t.Fatal("late crash from the losing hedge never tripped its breaker")
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.lat[f.idx[hedge]].get(); got != 0 {
		t.Errorf("crashed hedge fed the latency EWMA: %v", got)
	}
	if stats := f.DispatchStats(); stats.HedgeWins != 0 {
		t.Errorf("hedgeWins = %d, want 0", stats.HedgeWins)
	}
}
