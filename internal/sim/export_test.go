package sim

import (
	"math"
	"sort"

	"mikpoly/internal/hw"
)

// refStaticAssign is the max-min allocator as it was before the counting
// order: a comparison sort of (index, cost) pairs and per-PE lists grown by
// append. It is kept, unchanged, as the oracle staticAssign must reproduce
// task for task (assign_test.go).
func refStaticAssign(h hw.Hardware, tasks []Task, dead []bool) *staticFeeder {
	type est struct {
		idx  int
		cost float64
	}
	ests := make([]est, len(tasks))
	bw := h.FairShareBandwidth()
	for i, t := range tasks {
		ests[i] = est{idx: i, cost: PipelinedTaskCycles(t, bw)}
	}
	sort.SliceStable(ests, func(a, b int) bool { return ests[a].cost > ests[b].cost })

	live := make([]int, 0, h.NumPEs)
	for pe := 0; pe < h.NumPEs; pe++ {
		if dead == nil || !dead[pe] {
			live = append(live, pe)
		}
	}
	if len(live) == 0 {
		panic("sim: static assignment with no live PEs")
	}
	load := make([]float64, h.NumPEs)
	perPE := make([][]Task, h.NumPEs)
	for _, e := range ests {
		best := live[0]
		for _, pe := range live[1:] {
			if load[pe] < load[best]-eps {
				best = pe
			}
		}
		load[best] += e.cost
		perPE[best] = append(perPE[best], tasks[e.idx])
	}
	return &staticFeeder{perPE: perPE, left: len(tasks)}
}

// StaticAssignLists returns the per-PE task lists of the production allocator
// and of the reference.
func StaticAssignLists(h hw.Hardware, tasks []Task, dead []bool) (got, want [][]Task) {
	return staticAssign(h, tasks, dead).perPE, refStaticAssign(h, tasks, dead).perPE
}

// refFeeder is the reference placement for h: refStaticAssign on a statically
// scheduled device, the shared queue otherwise.
func refFeeder(h hw.Hardware, tasks []Task, dead []bool) feeder {
	if h.Scheduler == hw.ScheduleStaticMaxMin {
		return refStaticAssign(h, tasks, dead)
	}
	return dynamicQueue(tasks)
}

// RunReference is Run with the reference allocator and event loop.
func RunReference(h hw.Hardware, tasks []Task) Result {
	if len(tasks) == 0 {
		return Run(h, tasks)
	}
	if res, ok := analyticFastPath(h, tasks); ok {
		return res
	}
	return refRun(h, refFeeder(h, tasks, nil), nil, nil)
}

// RunTraceReference is RunTrace with the reference allocator and event loop.
func RunTraceReference(h hw.Hardware, tasks []Task) (Result, []TraceEvent) {
	if len(tasks) == 0 {
		return RunTrace(h, tasks)
	}
	var events []TraceEvent
	res := refRun(h, refFeeder(h, tasks, nil), func(e TraceEvent) { events = append(events, e) }, nil)
	return res, events
}

// RunWithFaultsReference is RunWithFaults with the reference allocator and
// event loop; f must be valid for h.
func RunWithFaultsReference(h hw.Hardware, tasks []Task, f Faults) Result {
	if len(tasks) == 0 {
		res, _ := RunWithFaults(h, tasks, f)
		return res
	}
	if f.Bandwidth > 0 {
		h.GlobalBytesPerCycle *= f.Bandwidth
	}
	fs := newFaultState(h, f)
	return refRun(h, refFeeder(h, tasks, fs.dead), nil, fs)
}

// running tracks one in-flight task on a PE (refRun's record).
type running struct {
	task          Task
	pe            int
	start         float64 // dispatch time (for tracing)
	memStartAt    float64 // startup completes, streaming may begin
	computeDoneAt float64 // startup + compute fully elapsed
	memLeft       float64 // bytes still to stream
	faulted       bool    // injected fault: output must be discarded
}

func (r *running) done(now float64) bool {
	return now+timeEps(now) >= r.computeDoneAt && r.memLeft <= memEps
}

// refRun is the event loop as it was before cohorts: one heap-allocated record
// per in-flight task, rescanned on every event. It is kept, unchanged, as the
// oracle runEventLoop must reproduce bit for bit (simrun_test.go).
func refRun(h hw.Hardware, f feeder, collect func(TraceEvent), fs *faultState) Result {
	var (
		now      float64
		active   []*running
		peBusy   = make([]float64, h.NumPEs)
		peFree   = make([]bool, h.NumPEs)
		nTasks   int
		faulted  int
		streamed float64
	)
	for i := range peFree {
		peFree[i] = fs == nil || !fs.dead[i]
	}

	start := func(pe int, t Task) {
		compute := t.ComputeCycles
		fault := false
		if fs != nil {
			compute *= fs.slow[pe]
			if fs.sticky[pe] > 0 {
				fs.sticky[pe]--
				fault = true
			} else if fs.taskFault(nTasks) {
				fault = true
			}
		}
		nTasks++
		streamed += t.MemBytes
		active = append(active, &running{
			task:          t,
			pe:            pe,
			start:         now,
			memStartAt:    now + t.StartupCycles,
			computeDoneAt: now + t.StartupCycles + compute,
			memLeft:       t.MemBytes,
			faulted:       fault,
		})
		peFree[pe] = false
		peBusy[pe] -= now // completed at retire time below
	}

	retire := func(r *running) {
		peBusy[r.pe] += now
		if r.faulted {
			faulted++
			if fs != nil {
				fs.peFaults[r.pe]++
			}
		}
		if collect != nil {
			collect(TraceEvent{PE: r.pe, Tag: r.task.Tag, Start: r.start, End: now})
		}
	}

	for {
		// Retire finished tasks.
		keep := active[:0]
		for _, r := range active {
			if r.done(now) {
				peFree[r.pe] = true
				retire(r)
			} else {
				keep = append(keep, r)
			}
		}
		active = keep

		// Process PE deaths due by now: the in-flight task (if any) is
		// lost, the PE accepts no further work, and statically assigned
		// residual work strands. Runs after retirement so a task finishing
		// exactly at the death cycle still completes.
		if fs != nil {
			for pe := 0; pe < h.NumPEs; pe++ {
				if fs.dead[pe] || now+timeEps(now) < fs.deathAt[pe] {
					continue
				}
				fs.dead[pe] = true
				fs.diedMid[pe] = true
				peFree[pe] = false
				keep := active[:0]
				for _, r := range active {
					if r.pe == pe {
						r.faulted = true
						retire(r)
					} else {
						keep = append(keep, r)
					}
				}
				active = keep
				fs.stranded += f.drain(pe)
			}
		}

		// Fill idle PEs.
		for pe := 0; pe < h.NumPEs; pe++ {
			if !peFree[pe] {
				continue
			}
			t, ok := f.next(pe)
			if !ok {
				continue
			}
			start(pe, t)
		}

		if len(active) == 0 {
			if f.remaining() == 0 {
				break
			}
			// Remaining work with nothing runnable: either every PE died
			// mid-run (the shared queue's leftovers strand), or the
			// static feeder misassigned — the latter cannot happen, so
			// any free PE here means a bug.
			for pe := 0; pe < h.NumPEs; pe++ {
				if peFree[pe] {
					panic("sim: no runnable tasks but work remains")
				}
			}
			if fs == nil {
				panic("sim: no runnable tasks but work remains")
			}
			fs.stranded += f.abandon()
			break
		}

		// Current bandwidth: the caller-scaled device total, derated by an
		// active brownout window, shared equally among streaming tasks and
		// capped per task.
		hNow := h
		if fs != nil {
			hNow.GlobalBytesPerCycle *= fs.bwFactor(now)
		}
		bwCap := perTaskBandwidthCap(hNow)
		tEps := timeEps(now)
		streaming := 0
		for _, r := range active {
			if now+tEps >= r.memStartAt && r.memLeft > memEps {
				streaming++
			}
		}
		share := bwCap
		if streaming > 0 {
			share = math.Min(bwCap, hNow.GlobalBytesPerCycle/float64(streaming))
		}

		// Next event: a startup completing, a compute finishing, a stream
		// draining, a PE death killing an in-flight task, or a brownout
		// boundary changing the bandwidth share. Streaming steps never
		// cross any of these boundaries.
		next := math.Inf(1)
		for _, r := range active {
			if r.memStartAt > now+tEps {
				next = math.Min(next, r.memStartAt)
			} else if r.memLeft > memEps {
				next = math.Min(next, now+r.memLeft/share)
			}
			if r.computeDoneAt > now+tEps {
				next = math.Min(next, r.computeDoneAt)
			}
			if fs != nil && !math.IsInf(fs.deathAt[r.pe], 1) && fs.deathAt[r.pe] > now+tEps {
				next = math.Min(next, fs.deathAt[r.pe])
			}
		}
		if fs != nil && fs.brown != nil {
			for _, b := range []float64{fs.brown.StartCycle, fs.brown.StartCycle + fs.brown.Duration} {
				if b > now+tEps {
					next = math.Min(next, b)
				}
			}
		}
		if math.IsInf(next, 1) {
			// Every active task is already finishable; loop retires them.
			continue
		}
		if next < now+tEps {
			// Force progress past float rounding.
			next = now + tEps
		}

		// Advance streaming progress to the event time.
		dt := next - now
		for _, r := range active {
			if now+tEps >= r.memStartAt && r.memLeft > memEps {
				r.memLeft = math.Max(0, r.memLeft-share*dt)
			}
		}
		now = next
	}

	var busy float64
	for _, b := range peBusy {
		busy += b
	}
	res := Result{Cycles: now, BusyPECycles: busy, NumTasks: nTasks, FaultedTasks: faulted, MemBytesStreamed: streamed, PEBusy: peBusy}
	if fs != nil {
		res.StrandedTasks = fs.stranded
		res.DeadPEs = fs.deadPEs()
		for _, n := range fs.peFaults {
			if n > 0 {
				res.PEFaults = append([]int(nil), fs.peFaults...)
				break
			}
		}
		if fs.brown != nil && fs.brown.StartCycle < now {
			res.BandwidthDerate = fs.brown.Factor
		}
	}
	return res
}
