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
	// results are the distinct stage results, shared with the stage memo;
	// stages lists the launched stages in execution order as indices into
	// results.
	results []*sim.Result
	stages  []uint8
}

type plannedShape struct {
	shape tensor.GemmShape
	prog  *poly.Program
}

const (
	// compiledCap bounds the table like simCacheCap bounds the stage memo:
	// per-process scratch, dropped wholesale when full. An entry is a few
	// hundred bytes and pins its stage results (about a kilobyte each) past a
	// drop of the stage memo, and a dropped entry costs one interpretation to
	// get back, so the cap is sized to a server's hot graphs, not to its
	// history.
	compiledCap = 128
	// maxDistinct bounds the distinct shapes and the distinct stage results
	// of one compiled execution (stage indices are bytes). A graph past it
	// keeps being interpreted.
	maxDistinct = 256
)

// recording is the compiled execution the interpreter builds while it runs a
// graph. off is set as soon as the run does something a replay could not
// reproduce from the table alone.
type recording struct {
	key  compiledKey
	off  bool
	exec compiledExec
	// keys are the stage-memo keys of exec.results, index for index.
	keys []digest
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
	i := 0
	for i < len(c.keys) && c.keys[i] != key.ops {
		i++
	}
	if i == len(c.keys) {
		if i == maxDistinct {
			c.off = true
			return
		}
		c.keys = append(c.keys, key.ops)
		c.exec.results = append(c.exec.results, res)
	}
	c.exec.stages = append(c.exec.stages, uint8(i))
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
// library swap, a changed health view, an eviction, an invalidation or a
// snapshot import would alter, and which keeps LRU recency and the hot-shape
// tracker fed. The health registry must then accept the stages' observations
// in bulk, which it does exactly when they would change nothing but its
// counters. Only then are the stage results folded into the cumulative stats,
// one by one in execution order — the sums are floating point, so any other
// order or a pre-summed total would change their bits.
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
	if r.cfg.Health != nil && !r.cfg.Health.ObserveClean(len(e.stages)) {
		return Report{}, false
	}
	_, sp := r.o.T().Start(ctx, "graphrt.execute")
	rep := e.rep
	rep.Graph = g.Name
	r.mu.Lock()
	for _, i := range e.stages {
		r.accumulateStageLocked(e.results[i])
	}
	r.accumulateReportLocked(rep)
	r.mu.Unlock()
	sp.Attr("ops", float64(rep.Ops)).Attr("stages", float64(rep.Stages)).
		Attr("cycles", rep.Cycles).End()
	return rep, true
}
