package graphrt

import (
	"context"

	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// A serving process runs the same few graphs over and over — one decode step
// graph per (batch, padded KV length), a BERT per hot sequence length — and
// on a healthy device every one of those runs is the same sequence of
// plan-cache hits and stage-memo hits. The first such run is kept as the
// graph's compiled execution; later runs check that it still holds and replay
// its effects without deriving the schedule, the memory plan or the stage keys
// again.

// compiledKey identifies a compiled execution by content: the graph's digest,
// the health fingerprint every stage ran under, and the fault salt.
type compiledKey struct {
	graph digest
	fp    string
	salt  uint64
}

// compiledExec is what one clean execution of a graph did, in the form a
// replay needs.
type compiledExec struct {
	// rep is the report a warm run returns: Graph is patched in from the
	// graph being replayed, the wall-clock planning fields are zero.
	rep Report
	// plans are the distinct GEMM shapes the graph ran and the program each
	// was answered with — what a replay asks the plan cache to confirm.
	plans []plannedShape
	// launched counts the stages the run launched, one health observation
	// each; pe is what those stages added to the runtime's PE counters.
	launched int
	pe       peCycles
}

type plannedShape struct {
	shape tensor.GemmShape
	prog  *poly.Program
}

const (
	// compiledCap bounds the table like simCacheCap bounds the stage memo:
	// per-process scratch, dropped wholesale when full. An entry is about a
	// kilobyte, most of it per-PE totals, and pins nothing of the stage memo;
	// a dropped entry costs one interpretation to get back, so the cap is
	// sized to a server's hot graphs, not to its history.
	compiledCap = 128
	// maxDistinct bounds the distinct shapes of one compiled execution (each
	// is one plan-cache probe per replay). A graph past it keeps being
	// interpreted.
	maxDistinct = 256
)

// recording is the compiled execution the interpreter builds while it runs a
// graph. off is set as soon as the run does something a replay could not
// reproduce from the table alone.
type recording struct {
	key  compiledKey
	off  bool
	exec compiledExec
}

// planned notes that shape was answered with prog.
func (c *recording) planned(shape tensor.GemmShape, prog *poly.Program) {
	if c.off {
		return
	}
	for _, p := range c.exec.plans {
		if p.shape == shape {
			// One shape, two programs in one run (an eviction and a replan in
			// between): a replay has one lookup to check per shape.
			c.off = p.prog != prog
			return
		}
	}
	if len(c.exec.plans) == maxDistinct {
		c.off = true
		return
	}
	c.exec.plans = append(c.exec.plans, plannedShape{shape, prog})
}

// launched notes one stage's first result. Only a pristine result under the
// key's own fingerprint can be replayed: anything else feeds the health
// registry evidence, or walks the recovery ladder, that ObserveClean and the
// table know nothing about.
func (c *recording) launched(key stageKey, res *sim.Result) {
	if c.off {
		return
	}
	if key.fp != c.key.fp || !pristine(res) {
		c.off = true
		return
	}
	c.exec.launched++
	c.exec.pe.addStage(res)
}

// pristine reports whether observing res can tell the health registry nothing.
func pristine(res *sim.Result) bool {
	return res.Clean() && len(res.DeadPEs) == 0 && len(res.PEFaults) == 0 && res.BandwidthDerate == 0
}

// storeLocked keeps the finished recording as the graph's compiled execution
// if the run was one a replay reproduces exactly: nothing degraded, faulted or
// recovered. Callers hold r.mu.
func (r *Runtime) storeLocked(c *recording, rep Report) {
	if c.off || rep.Degraded != 0 || rep.FaultedTasks != 0 || rep.RecoveredStages != 0 {
		return
	}
	rep.Graph = ""
	rep.Stalls, rep.PlanWall, rep.StallWall, rep.HiddenWall = 0, 0, 0, 0
	c.exec.rep = rep
	if len(r.compiled) >= compiledCap {
		r.compiled = make(map[compiledKey]compiledExec)
	}
	r.compiled[c.key] = c.exec
}

// replay answers an execution from the compiled table. A hit is guarded, not
// trusted. One plan-cache probe per distinct shape must return the program
// the compiled run used — by address, else by content — which is what a
// library swap, a changed health view, an eviction or an invalidation would
// alter, and which keeps LRU recency and the hot-shape tracker fed. The health
// registry must then accept the stages' observations in bulk, which it does
// exactly when they would change nothing but its counters. Only then is the
// run's PE total added to the runtime's counters in one step: they are
// integers, so that equals adding its stages one by one.
func (r *Runtime) replay(ctx context.Context, g nn.Graph, key compiledKey) (Report, bool) {
	r.mu.Lock()
	e, ok := r.compiled[key]
	r.mu.Unlock()
	if !ok || ctx.Err() != nil {
		// A cancelled execution fails where it always did, in the interpreter.
		return Report{}, false
	}
	for _, p := range e.plans {
		got := r.lookupFn(p.shape)
		if got != p.prog && (got == nil || r.progDigest(got) != r.progDigest(p.prog)) {
			return Report{}, false
		}
	}
	if r.cfg.Health != nil && !r.cfg.Health.ObserveClean(e.launched) {
		return Report{}, false
	}
	_, sp := r.o.T().Start(ctx, "graphrt.execute")
	rep := e.rep
	rep.Graph = g.Name
	r.mu.Lock()
	r.pe.add(e.pe)
	r.accumulateReportLocked(rep)
	r.mu.Unlock()
	sp.Attr("ops", float64(rep.Ops)).Attr("stages", float64(rep.Stages)).
		Attr("cycles", rep.Cycles).End()
	return rep, true
}
