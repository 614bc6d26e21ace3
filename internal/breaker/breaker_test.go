package breaker

import (
	"testing"
	"time"
)

// fakeClock is the Now seam: time moves only when the test advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTest(threshold int) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := New(threshold)
	b.Now = clk.now
	return b, clk
}

func wantState(t *testing.T, b *Breaker, want State) {
	t.Helper()
	if got := b.State(); got != want {
		t.Fatalf("state %s, want %s", got, want)
	}
}

const cooldown = 5 * time.Second

// TestClosedOpensAtThreshold: threshold consecutive failures open a closed
// breaker — only the last one reports the trip — and a success in between
// resets the streak.
func TestClosedOpensAtThreshold(t *testing.T) {
	b, _ := newTest(3)
	wantState(t, b, Closed)
	for i := 0; i < 2; i++ {
		if b.Record(false) {
			t.Fatalf("failure %d tripped a threshold-3 breaker", i+1)
		}
	}
	if b.Record(true) {
		t.Fatal("a success reported a trip")
	}
	for i := 0; i < 2; i++ {
		if b.Record(false) {
			t.Fatal("the streak survived a success")
		}
	}
	wantState(t, b, Closed)
	if !b.Record(false) {
		t.Fatal("the third consecutive failure did not trip")
	}
	wantState(t, b, Open)
}

// TestOpenCooldownAndSingleProbe: an open breaker refuses a probe until the
// cooldown has elapsed since it opened, then hands out exactly one.
func TestOpenCooldownAndSingleProbe(t *testing.T) {
	b, clk := newTest(1)
	if b.BeginProbe(0) {
		t.Fatal("a closed breaker handed out a probe")
	}
	b.Record(false)
	clk.advance(cooldown - time.Nanosecond)
	if b.BeginProbe(cooldown) {
		t.Fatal("probe before the cooldown elapsed")
	}
	wantState(t, b, Open)
	clk.advance(time.Nanosecond)
	if !b.BeginProbe(cooldown) {
		t.Fatal("no probe once the cooldown elapsed")
	}
	wantState(t, b, HalfOpen)
	if b.BeginProbe(cooldown) {
		t.Fatal("a second probe while half-open")
	}
}

// TestOpenDoesNotRearm: failures recorded while open neither report a trip
// nor restart the cooldown — however many of them arrive — so the probe comes
// due at openedAt + cooldown.
func TestOpenDoesNotRearm(t *testing.T) {
	b, clk := newTest(2)
	b.Record(false)
	b.Record(false)
	wantState(t, b, Open)
	for i := 0; i < 5; i++ {
		clk.advance(cooldown / 10)
		if b.Record(false) {
			t.Fatalf("failure %d while open reported a trip", i+1)
		}
	}
	wantState(t, b, Open)
	clk.advance(cooldown / 2)
	if !b.BeginProbe(cooldown) {
		t.Fatal("failures while open re-armed the cooldown")
	}
}

// TestOpenClosesOnSuccess: a live success closes an open breaker and resets
// the streak.
func TestOpenClosesOnSuccess(t *testing.T) {
	b, _ := newTest(2)
	b.Record(false)
	b.Record(false)
	b.Record(false) // counted while open
	b.Record(true)
	wantState(t, b, Closed)
	if b.Record(false) {
		t.Fatal("the streak survived the closing success")
	}
	if !b.Record(false) {
		t.Fatal("threshold failures after re-closing did not trip")
	}
}

// TestHalfOpenIgnoresLiveTraffic: while the probe is out, live outcomes are
// ignored either way; the verdict is ProbeResult's.
func TestHalfOpenIgnoresLiveTraffic(t *testing.T) {
	b, _ := newTest(1)
	b.Record(false)
	b.BeginProbe(0)
	for _, ok := range []bool{true, false, false} {
		if b.Record(ok) {
			t.Fatal("an outcome while half-open reported a trip")
		}
		wantState(t, b, HalfOpen)
	}
}

// TestProbeResult: a successful probe closes with a fresh streak; a failed
// one re-opens with a fresh cooldown; outside half-open it is a no-op.
func TestProbeResult(t *testing.T) {
	b, clk := newTest(2)
	b.ProbeResult(false)
	wantState(t, b, Closed)

	b.Record(false)
	b.Record(false)
	b.Record(false) // streak counted while open
	clk.advance(cooldown)
	b.BeginProbe(cooldown)
	b.ProbeResult(true)
	wantState(t, b, Closed)
	if b.Record(false) {
		t.Fatal("the streak survived a successful probe")
	}
	b.ProbeResult(false) // closed: no-op
	wantState(t, b, Closed)

	b.Record(false)
	clk.advance(cooldown)
	b.BeginProbe(cooldown)
	b.ProbeResult(false)
	wantState(t, b, Open)
	if b.BeginProbe(cooldown) {
		t.Fatal("a failed probe did not restart the cooldown")
	}
	b.ProbeResult(true) // open: no-op
	wantState(t, b, Open)
	clk.advance(cooldown)
	if !b.BeginProbe(cooldown) {
		t.Fatal("no probe a cooldown after the failed probe")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
