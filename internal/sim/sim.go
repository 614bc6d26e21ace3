package sim

import (
	"math"
	"math/bits"
	"sort"

	"mikpoly/internal/hw"
)

const eps = 1e-9

// memEps is the residual-stream threshold in bytes below which a transfer
// counts as drained; absolute because bytes have a natural scale.
const memEps = 1e-3

// timeEps is the time-comparison tolerance at clock value now. It must be
// relative: an absolute epsilon is absorbed by float64 rounding once now
// reaches ~1e9 cycles, stalling event progress on long simulations.
func timeEps(now float64) float64 { return 1e-9 * (now + 1) }

// perTaskBandwidthCap returns the most global bandwidth a single task can
// consume: one PE's load/store unit cannot saturate HBM by itself, so a lone
// task is capped well below the device total (1/16th) but never below the
// fair share.
func perTaskBandwidthCap(h hw.Hardware) float64 {
	return math.Max(h.FairShareBandwidth(), h.GlobalBytesPerCycle/16)
}

// Run executes the task list on hardware h and returns the makespan and
// per-PE utilization. Placement follows h.Scheduler: GPUs hand each ready
// task to the first idle PE (hardware dynamic scheduling, so regions of a
// polymerized program overlap and tail waves shrink); NPUs pre-assign tasks
// with the max-min static allocation of §4 and each core drains its own list.
func Run(h hw.Hardware, tasks []Task) Result {
	if err := h.Validate(); err != nil {
		panic(err)
	}
	if len(tasks) == 0 {
		return Result{PEBusy: make([]float64, h.NumPEs)}
	}
	if res, ok := analyticFastPath(h, tasks); ok {
		return res
	}
	switch h.Scheduler {
	case hw.ScheduleStaticMaxMin:
		return runEventLoop(h, staticAssign(h, tasks, nil), nil, nil)
	default:
		return runEventLoop(h, dynamicQueue(tasks), nil, nil)
	}
}

// fastPathMinWaves gates the analytic path: only programs whose identical
// task runs each span many waves take it, where the boundary-wave
// approximation error is negligible.
const fastPathMinWaves = 64

// analyticFastPath computes the makespan of very large programs in closed
// form. For a run of identical tasks the event loop is exactly wave-lockstep
// — every wave of |P| tasks starts and finishes together with an equal
// bandwidth share — so the analytic result matches the event loop except at
// region boundaries, where the dynamic scheduler would overlap one partial
// wave with the next region's first wave (a ≤1/waves relative error at the
// gated sizes).
func analyticFastPath(h hw.Hardware, tasks []Task) (Result, bool) {
	if len(tasks) < fastPathMinWaves*h.NumPEs {
		return Result{}, false
	}
	// Split into runs of identical tasks; every run must itself be large.
	type run struct {
		t Task
		n int
	}
	var runs []run
	for _, t := range tasks {
		if len(runs) > 0 && runs[len(runs)-1].t == t {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{t: t, n: 1})
		}
	}
	for _, r := range runs {
		if r.n < fastPathMinWaves*h.NumPEs {
			return Result{}, false
		}
	}

	bwCap := perTaskBandwidthCap(h)
	duration := func(t Task, active int) float64 {
		share := math.Min(bwCap, h.GlobalBytesPerCycle/float64(active))
		return t.StartupCycles + math.Max(t.ComputeCycles, t.MemBytes/share)
	}
	var makespan, busy, streamed float64
	for _, r := range runs {
		streamed += float64(r.n) * r.t.MemBytes
		full := r.n / h.NumPEs
		rem := r.n % h.NumPEs
		dFull := duration(r.t, h.NumPEs)
		makespan += float64(full) * dFull
		busy += float64(full*h.NumPEs) * dFull
		if rem > 0 {
			dRem := duration(r.t, rem)
			makespan += dRem
			busy += float64(rem) * dRem
		}
	}
	peBusy := make([]float64, h.NumPEs)
	for i := range peBusy {
		peBusy[i] = busy / float64(h.NumPEs)
	}
	return Result{Cycles: makespan, BusyPECycles: busy, NumTasks: len(tasks), MemBytesStreamed: streamed, PEBusy: peBusy}, true
}

// feeder abstracts task placement: next returns the task a freed PE should
// run, or false when that PE has no more work. drain discards work only the
// given PE could ever run (a statically assigned list when the PE dies
// mid-run), returning the count; abandon discards everything left, for the
// degenerate case where no live PE remains.
type feeder interface {
	next(pe int) (Task, bool)
	remaining() int
	drain(pe int) int
	abandon() int
}

// dynamicQueue models the GPU hardware scheduler: a single FIFO shared by
// all PEs.
type dynQueue struct {
	tasks []Task
	head  int
}

func dynamicQueue(tasks []Task) *dynQueue { return &dynQueue{tasks: tasks} }

func (q *dynQueue) next(pe int) (Task, bool) {
	if q.head >= len(q.tasks) {
		return Task{}, false
	}
	t := q.tasks[q.head]
	q.head++
	return t, true
}

func (q *dynQueue) remaining() int { return len(q.tasks) - q.head }

// drain is a no-op for the shared queue: any surviving PE can run the work.
func (q *dynQueue) drain(pe int) int { return 0 }

func (q *dynQueue) abandon() int {
	n := len(q.tasks) - q.head
	q.head = len(q.tasks)
	return n
}

// staticFeeder holds the per-PE lists computed by the max-min allocator.
type staticFeeder struct {
	perPE [][]Task
	left  int
}

func (f *staticFeeder) next(pe int) (Task, bool) {
	l := f.perPE[pe]
	if len(l) == 0 {
		return Task{}, false
	}
	t := l[0]
	f.perPE[pe] = l[1:]
	f.left--
	return t, true
}

func (f *staticFeeder) remaining() int { return f.left }

func (f *staticFeeder) drain(pe int) int {
	n := len(f.perPE[pe])
	f.perPE[pe] = nil
	f.left -= n
	return n
}

func (f *staticFeeder) abandon() int {
	n := 0
	for pe := range f.perPE {
		n += f.drain(pe)
	}
	return n
}

// staticAssign implements the max-min static allocation used on the NPU
// platform (§4): tasks are ordered by decreasing estimated duration (with the
// fair-share bandwidth), ties in list order, and each is placed on the
// currently least-loaded core, maximizing the minimum slack — classic LPT
// scheduling. dead marks PEs excluded from placement (fault injection); nil
// means all PEs are live. The per-PE lists are carved from one backing array.
func staticAssign(h hw.Hardware, tasks []Task, dead []bool) *staticFeeder {
	bw := h.FairShareBandwidth()
	costs := make([]float64, len(tasks))
	for i, t := range tasks {
		costs[i] = PipelinedTaskCycles(t, bw)
	}
	order := lptOrder(costs)

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
	count := make([]int, h.NumPEs)
	owner := make([]int32, len(order)) // PE of the k-th task in LPT order
	var groups loadGroups
	grouped := groups.init(live, h.NumPEs)
	for k, i := range order {
		var best int
		if grouped {
			best = groups.best(load)
		} else {
			best = live[0]
			for _, pe := range live[1:] {
				if load[pe] < load[best]-eps {
					best = pe
				}
			}
		}
		from := load[best]
		load[best] += costs[i]
		if grouped {
			grouped = groups.move(best, from, load[best])
		}
		count[best]++
		owner[k] = int32(best)
	}

	backing := make([]Task, len(tasks))
	perPE := make([][]Task, h.NumPEs)
	off := 0
	for pe, n := range count {
		if n > 0 {
			perPE[pe] = backing[off : off : off+n]
			off += n
		}
	}
	for k, i := range order {
		perPE[owner[k]] = append(perPE[owner[k]], tasks[i])
	}
	return &staticFeeder{perPE: perPE, left: len(tasks)}
}

// maxLoadGroups is the most distinct PE loads loadGroups tracks. LPT over a
// lowered program's handful of costs keeps few distinct loads; past the cap
// the allocator goes back to scanning every PE.
const maxLoadGroups = 8

// loadGroups partitions the live PEs by load value so that the allocator's
// ε-scan (`load[pe] < load[best]-eps` over the live PEs in index order) visits
// one PE per distinct load. A PE whose load equals an earlier PE's can never
// become best: when the earlier PE was visited it either became best or had a
// load ≥ load[best]-ε; best's load only decreases after that, and float
// subtraction is monotone, so the later PE's comparison is false as well.
// Scanning only each group's lowest PE, in index order, therefore picks the
// same PE. Groups need PE indices below 64 and loads that equal themselves
// (not NaN).
type loadGroups struct {
	n    int
	load [maxLoadGroups]float64
	pes  [maxLoadGroups]uint64 // bit pe set: PE pe holds load[g]
}

// init puts every live PE in one group of load 0 and reports whether grouping
// applies.
func (g *loadGroups) init(live []int, numPEs int) bool {
	if numPEs > 64 {
		return false
	}
	g.n = 1
	for _, pe := range live {
		g.pes[0] |= 1 << pe
	}
	return true
}

// best is the PE the full ε-scan would pick.
func (g *loadGroups) best(load []float64) int {
	var lowest uint64 // each group's lowest PE
	for _, m := range g.pes[:g.n] {
		lowest |= m & -m
	}
	best := bits.TrailingZeros64(lowest)
	for lowest &= lowest - 1; lowest != 0; lowest &= lowest - 1 {
		if pe := bits.TrailingZeros64(lowest); load[pe] < load[best]-eps {
			best = pe
		}
	}
	return best
}

// move regroups pe from load from to load to. It reports false — grouping no
// longer applies — when to is NaN or would be one distinct load too many.
func (g *loadGroups) move(pe int, from, to float64) bool {
	bit := uint64(1) << pe
	for i := range g.n {
		if g.load[i] == from {
			if g.pes[i] &^= bit; g.pes[i] == 0 {
				g.n--
				g.load[i], g.pes[i] = g.load[g.n], g.pes[g.n]
			}
			break
		}
	}
	for i := range g.n {
		if g.load[i] == to {
			g.pes[i] |= bit
			return true
		}
	}
	if to != to || g.n == maxLoadGroups {
		return false
	}
	g.load[g.n], g.pes[g.n] = to, bit
	g.n++
	return true
}

// maxCountedCosts is the most distinct task costs lptOrder orders by counting;
// a lowered program has one per region, at most a handful.
const maxCountedCosts = 16

// lptOrder returns the task indices by decreasing cost, equal costs in index
// order — the order a stable sort on cost_a > cost_b yields. With few distinct
// costs it is a stable counting order; past maxCountedCosts, or with a NaN
// cost (which compares equal to everything and so leaves the sort's order to
// its algorithm), it is that stable sort.
func lptOrder(costs []float64) []int32 {
	order := make([]int32, len(costs))
	var distinct [maxCountedCosts]float64
	var start [maxCountedCosts]int32
	nd, last := 0, 0
	for _, c := range costs {
		if c != distinct[last] || nd == 0 {
			last = 0
			for last < nd && distinct[last] != c {
				last++
			}
			if c != c || last == maxCountedCosts {
				for i := range order {
					order[i] = int32(i)
				}
				sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
				return order
			}
			if last == nd {
				distinct[nd] = c
				nd++
			}
		}
		start[last]++
	}
	// Rank the distinct costs by decreasing value (insertion sort, ≤ 16
	// values, all distinct and ordered); start becomes each class's first
	// position in the output.
	var rank [maxCountedCosts]int
	for j := range nd {
		rank[j] = j
	}
	for j := 1; j < nd; j++ {
		for r := j; r > 0 && distinct[rank[r]] > distinct[rank[r-1]]; r-- {
			rank[r], rank[r-1] = rank[r-1], rank[r]
		}
	}
	pos := int32(0)
	for _, j := range rank[:nd] {
		pos, start[j] = pos+start[j], pos
	}
	last = 0
	for i, c := range costs {
		if c != distinct[last] {
			last = 0
			for distinct[last] != c {
				last++
			}
		}
		order[start[last]] = int32(i)
		start[last]++
	}
	return order
}

// PE states held in eventLoop.link beside a busy PE's next cohort member.
const (
	peLast = -1 - iota // busy, the last member of its cohort
	peFree             // idle, offered work on the next fill pass
	peIdle             // idle for good: its feeder has no more work for it
	peOff              // dead, takes no work
)

// cohort is a run of identical in-flight tasks started on one fill pass: the
// same Task bit for bit, start, memStartAt, computeDoneAt, memLeft and fault
// flag. Everything the event loop derives from an in-flight task is a function
// of these, so the members reach every event together and the loop pays once
// per cohort what it would otherwise pay once per task. The member PEs, in
// increasing order, chain through eventLoop.link from head to tail.
type cohort struct {
	task          Task
	start         float64 // dispatch time (for tracing)
	memStartAt    float64 // startup completes, streaming may begin
	computeDoneAt float64 // startup + compute fully elapsed
	memLeft       float64 // bytes each member still has to stream
	faulted       bool    // injected fault: outputs must be discarded
	head, tail, n int32
}

// done and streaming take nowEps = now + timeEps(now).
func (c *cohort) done(nowEps float64) bool { return nowEps >= c.computeDoneAt && c.memLeft <= memEps }

func (c *cohort) streaming(nowEps float64) bool { return nowEps >= c.memStartAt && c.memLeft > memEps }

// joins reports whether task t, started now with the given completion time
// and fault flag, may join c. start, memStartAt and memLeft follow from the
// task and the clock, equal within a fill pass; computeDoneAt differs on a
// slowed PE.
func (c *cohort) joins(t *Task, computeDoneAt float64, faulted bool) bool {
	return c.faulted == faulted && sameBits(c.computeDoneAt, computeDoneAt) &&
		sameBits(c.task.ComputeCycles, t.ComputeCycles) && sameBits(c.task.MemBytes, t.MemBytes) &&
		sameBits(c.task.StartupCycles, t.StartupCycles) && c.task.Tag == t.Tag
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// eventLoop is the state of one simulated run.
type eventLoop struct {
	f       feeder
	collect func(TraceEvent)
	fs      *faultState

	now       float64
	cohorts   []cohort // in start order, at most one per PE
	link      []int32  // per PE: the next member of its cohort, or a pe* state
	peBusy    []float64
	streaming int // members of streaming cohorts
	nTasks    int
	faulted   int
	streamed  float64
}

// runEventLoop is the event-driven core. At every event boundary it retires
// finished tasks (reporting them to collect when tracing), starts new ones on
// idle PEs, recomputes the equal bandwidth share among streaming tasks (capped
// per task) and advances streaming progress to the next event. fs, when
// non-nil, injects deterministic hardware faults (dead PEs, per-PE compute
// slowdown, mid-run PE death, brownout windows, transient and sticky task
// faults); run-long bandwidth degradation is applied by the caller through h.
//
// In-flight tasks are held as cohorts, by value, so a run allocates its
// per-PE state once and each event costs one pass per cohort, not per task.
// The builtin min and max it uses agree with math.Min and math.Max on every
// operand the loop can produce (they differ only on a NaN against −Inf for
// min or +Inf for max).
func runEventLoop(h hw.Hardware, f feeder, collect func(TraceEvent), fs *faultState) Result {
	l := eventLoop{
		f: f, collect: collect, fs: fs,
		cohorts: make([]cohort, 0, h.NumPEs),
		link:    make([]int32, h.NumPEs),
		peBusy:  make([]float64, h.NumPEs),
	}
	for pe := range l.link {
		l.link[pe] = peFree
		if fs != nil && fs.dead[pe] {
			l.link[pe] = peOff
		}
	}
	bwCap := perTaskBandwidthCap(h)
	fill := true // some PE is peFree
	for {
		nowEps := l.now + timeEps(l.now)
		if l.retire(nowEps) {
			fill = true
		}

		// Process PE deaths due by now: the in-flight task (if any) is
		// lost, the PE accepts no further work, and statically assigned
		// residual work strands. Runs after retirement so a task finishing
		// exactly at the death cycle still completes.
		if fs != nil {
			for pe := range l.link {
				if fs.dead[pe] || nowEps < fs.deathAt[pe] {
					continue
				}
				fs.dead[pe] = true
				fs.diedMid[pe] = true
				if l.link[pe] >= peLast {
					l.kill(int32(pe), nowEps)
				}
				l.link[pe] = peOff
				fs.stranded += f.drain(pe)
			}
		}

		if fill {
			l.fill(nowEps)
			fill = false
		}

		if len(l.cohorts) == 0 {
			if f.remaining() == 0 {
				break
			}
			// Remaining work with nothing runnable: either every PE died
			// mid-run (the shared queue's leftovers strand), or the
			// static feeder misassigned — the latter cannot happen, so
			// any idle live PE here means a bug.
			for _, s := range l.link {
				if s == peFree || s == peIdle {
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
		total := h.GlobalBytesPerCycle
		if fs != nil {
			hNow := h
			hNow.GlobalBytesPerCycle *= fs.bwFactor(l.now)
			total, bwCap = hNow.GlobalBytesPerCycle, perTaskBandwidthCap(hNow)
		}
		share := bwCap
		if l.streaming > 0 {
			share = min(bwCap, total/float64(l.streaming))
		}

		// Next event: a startup completing, a compute finishing, a stream
		// draining, a PE death killing an in-flight task, or a brownout
		// boundary changing the bandwidth share. Streaming steps never
		// cross any of these boundaries.
		next := math.Inf(1)
		for i := range l.cohorts {
			c := &l.cohorts[i]
			if c.memStartAt > nowEps {
				next = min(next, c.memStartAt)
			} else if c.memLeft > memEps {
				next = min(next, l.now+c.memLeft/share)
			}
			if c.computeDoneAt > nowEps {
				next = min(next, c.computeDoneAt)
			}
			if fs != nil {
				for pe := c.head; pe >= 0; pe = l.link[pe] {
					if d := fs.deathAt[pe]; !math.IsInf(d, 1) && d > nowEps {
						next = min(next, d)
					}
				}
			}
		}
		if fs != nil && fs.brown != nil {
			for _, b := range [2]float64{fs.brown.StartCycle, fs.brown.StartCycle + fs.brown.Duration} {
				if b > nowEps {
					next = min(next, b)
				}
			}
		}
		if math.IsInf(next, 1) {
			// Every active task is already finishable; loop retires them.
			continue
		}
		if next < nowEps {
			// Force progress past float rounding.
			next = nowEps
		}

		// Advance streaming progress to the event time.
		dt := next - l.now
		for i := range l.cohorts {
			if c := &l.cohorts[i]; c.streaming(nowEps) {
				c.memLeft = max(0, c.memLeft-share*dt)
			}
		}
		l.now = next
	}

	var busy float64
	for _, b := range l.peBusy {
		busy += b
	}
	res := Result{Cycles: l.now, BusyPECycles: busy, NumTasks: l.nTasks, FaultedTasks: l.faulted, MemBytesStreamed: l.streamed, PEBusy: l.peBusy}
	if fs != nil {
		res.StrandedTasks = fs.stranded
		res.DeadPEs = fs.deadPEs()
		for _, n := range fs.peFaults {
			if n > 0 {
				res.PEFaults = append([]int(nil), fs.peFaults...)
				break
			}
		}
		if fs.brown != nil && fs.brown.StartCycle < l.now {
			res.BandwidthDerate = fs.brown.Factor
		}
	}
	return res
}

// retire retires every finished cohort, member by member in PE order, and
// counts the members of the remaining cohorts that stream. It reports whether
// any PE was freed.
func (l *eventLoop) retire(nowEps float64) bool {
	kept, freed := 0, false
	l.streaming = 0
	for i := range l.cohorts {
		c := &l.cohorts[i]
		if c.done(nowEps) {
			for pe := c.head; pe >= 0; {
				next := l.link[pe]
				l.link[pe] = peFree
				l.finish(pe, c, c.faulted)
				pe = next
			}
			freed = true
			continue
		}
		if c.streaming(nowEps) {
			l.streaming += int(c.n)
		}
		if kept != i {
			l.cohorts[kept] = *c
		}
		kept++
	}
	l.cohorts = l.cohorts[:kept]
	return freed
}

// kill removes busy PE pe from its cohort and retires its task as faulted.
func (l *eventLoop) kill(pe int32, nowEps float64) {
	for i := range l.cohorts {
		c := &l.cohorts[i]
		prev := int32(peLast)
		for m := c.head; m >= 0; prev, m = m, l.link[m] {
			if m != pe {
				continue
			}
			if prev == peLast {
				c.head = l.link[pe]
			} else {
				l.link[prev] = l.link[pe]
			}
			if c.tail == pe {
				c.tail = prev
			}
			c.n--
			if c.streaming(nowEps) {
				l.streaming--
			}
			l.finish(pe, c, true)
			if c.n == 0 {
				l.cohorts = append(l.cohorts[:i], l.cohorts[i+1:]...)
			}
			return
		}
	}
}

// finish books one retired task of cohort c on PE pe.
func (l *eventLoop) finish(pe int32, c *cohort, faulted bool) {
	l.peBusy[pe] += l.now
	if faulted {
		l.faulted++
		if l.fs != nil {
			l.fs.peFaults[pe]++
		}
	}
	if l.collect != nil {
		l.collect(TraceEvent{PE: int(pe), Tag: c.task.Tag, Start: c.start, End: l.now})
	}
}

// fill offers work to every free PE in index order. A PE the feeder has
// nothing for never gets any later: both feeders only ever shrink.
func (l *eventLoop) fill(nowEps float64) {
	pass := len(l.cohorts) // cohorts from here on started in this pass
	for pe := range l.link {
		if l.link[pe] != peFree {
			continue
		}
		t, ok := l.f.next(pe)
		if !ok {
			l.link[pe] = peIdle
			continue
		}
		l.start(int32(pe), t, pass, nowEps)
	}
}

// start dispatches t on PE pe, joining the last cohort when that cohort was
// started in this fill pass (index ≥ pass) with identical state.
func (l *eventLoop) start(pe int32, t Task, pass int, nowEps float64) {
	compute := t.ComputeCycles
	fault := false
	if fs := l.fs; fs != nil {
		compute *= fs.slow[pe]
		if fs.sticky[pe] > 0 {
			fs.sticky[pe]--
			fault = true
		} else if fs.taskFault(l.nTasks) {
			fault = true
		}
	}
	l.nTasks++
	l.streamed += t.MemBytes
	l.peBusy[pe] -= l.now // completed at retirement
	l.link[pe] = peLast
	computeDoneAt := l.now + t.StartupCycles + compute
	if last := len(l.cohorts) - 1; last >= pass && l.cohorts[last].joins(&t, computeDoneAt, fault) {
		c := &l.cohorts[last]
		l.link[c.tail] = pe
		c.tail = pe
		c.n++
	} else {
		l.cohorts = append(l.cohorts, cohort{
			task:          t,
			start:         l.now,
			memStartAt:    l.now + t.StartupCycles,
			computeDoneAt: computeDoneAt,
			memLeft:       t.MemBytes,
			faulted:       fault,
			head:          pe, tail: pe, n: 1,
		})
	}
	if l.cohorts[len(l.cohorts)-1].streaming(nowEps) {
		l.streaming++
	}
}

// TransferCycles returns the M_global cycles needed to stream n bytes at
// the device's full aggregate bandwidth — the cost model for KV page-copy
// (copy-on-write) and spill traffic charged by the serving scheduler.
func TransferCycles(h hw.Hardware, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / h.GlobalBytesPerCycle
}
