package graphrt

import (
	"context"

	"mikpoly/internal/nn"
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
// replay needs. It references no program: a plan-cache eviction releases the
// programs of every graph that ran them, while the entry stays replayable by
// content.
type compiledExec struct {
	// rep is the report a warm run returns: Graph is patched in from the
	// graph being replayed, the wall-clock planning fields are zero.
	rep Report
	// plans are the distinct GEMM shapes the graph ran and the digest of the
	// program each was answered with — what a replay asks the plan cache to
	// confirm.
	plans []plannedShape
	// launched counts the stages the run launched, one health observation
	// each; stage and busy are what those stages added to the runtime's PE
	// counters, the per-PE totals as runs of equal values.
	launched int
	stage    int64
	busy     []peRun
}

type plannedShape struct {
	shape  tensor.GemmShape
	digest digest
}

const (
	// compiledCap bounds the table. It is sized to a server's working set:
	// generate-unique runs about 500 distinct graphs, and at 256 entries its
	// hot set does not fit. An entry is a few hundred bytes (the report, one
	// shape and digest per distinct shape, a handful of PE runs) and pins
	// neither programs nor stage-memo results.
	compiledCap = 512
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
	pe   peCycles // the stages' PE counters, run-length encoded when stored
}

// planned notes that shape was answered with the program of digest d.
func (c *recording) planned(shape tensor.GemmShape, d digest) {
	if c.off {
		return
	}
	for _, p := range c.exec.plans {
		if p.shape == shape {
			// One shape, two programs in one run (an eviction and a replan in
			// between): a replay has one lookup to check per shape.
			c.off = p.digest != d
			return
		}
	}
	if len(c.exec.plans) == maxDistinct {
		c.off = true
		return
	}
	c.exec.plans = append(c.exec.plans, plannedShape{shape, d})
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
	c.pe.addStage(res)
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
	c.exec.stage, c.exec.busy = c.pe.stage, c.pe.runs()
	if _, _, evicted := r.compiled.Put(c.key, c.exec); evicted {
		r.compiledEvictions++
	}
}

// replay answers an execution from the compiled table, refreshing the entry's
// recency. A hit is guarded, not trusted. One plan-cache probe per distinct
// shape must return a program with the content the compiled run used — which
// is what a changed health view or an invalidation would alter, while an
// eviction and a replan of the same shape would not — and which keeps LRU
// recency and the hot-shape tracker fed. The health registry must then
// accept the stages' observations in bulk, which it does exactly when they
// would change nothing but its counters. Only then is the run's PE total
// added to the runtime's counters in one step: they are integers, so that
// equals adding its stages one by one.
func (r *Runtime) replay(ctx context.Context, g nn.Graph, key compiledKey) (Report, bool) {
	r.mu.Lock()
	e, ok := r.compiled.Get(key)
	r.mu.Unlock()
	if !ok || ctx.Err() != nil {
		// A cancelled execution fails where it always did, in the interpreter.
		return Report{}, false
	}
	for _, p := range e.plans {
		got := r.lookupFn(p.shape)
		if got == nil || r.progDigest(got) != p.digest {
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
	r.pe.addRuns(e.stage, e.busy)
	r.compiledHits++
	r.accumulateReportLocked(rep)
	r.mu.Unlock()
	sp.Attr("ops", float64(rep.Ops)).Attr("stages", float64(rep.Stages)).
		Attr("cycles", rep.Cycles).End()
	return rep, true
}
