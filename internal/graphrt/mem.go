package graphrt

import (
	"fmt"
	"sort"

	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
)

// MemReport summarizes the global-memory plan of one graph execution.
type MemReport struct {
	// CapacityBytes is H.M_global (0 = unspecified, treated as unbounded).
	CapacityBytes int64
	// Buffers is the number of inter-op tensors planned.
	Buffers int
	// PeakBytes is the allocator's high-water mark among buffers that fit.
	PeakBytes int64
	// WorkingSetBytes is the peak sum of simultaneously-live buffer sizes
	// — what the graph would need with no capacity bound.
	WorkingSetBytes int64
	// SpilledBuffers and SpillBytes describe tensors that did not fit:
	// each spill pays its size once to store plus once per consuming
	// stage to reload, charged as bandwidth-bound traffic.
	SpilledBuffers int
	SpillBytes     float64
}

// buffer is one inter-op tensor: the output of a GEMM/conv op, live from
// its producing stage through the stage of its last consumer. OpOther ops
// are bandwidth passes that forward their input in place, so demand on
// their output is demand on their producers' buffers.
type buffer struct {
	op          int
	size        int64
	birth, last int   // stage interval [birth, last]
	reads       int   // consuming stages (reload count if spilled)
	off         int64 // assigned offset when fitted
	spilled     bool
}

// planMemory performs liveness-based first-fit assignment of inter-op
// tensors against the device's global memory, reusing freed regions; a
// tensor that cannot fit is spilled and its round-trip traffic charged to
// the execution. The schedule's stage order defines liveness.
func planMemory(g nn.Graph, stages [][]int, h hw.Hardware) MemReport {
	rep := MemReport{CapacityBytes: h.GlobalMemBytes}

	pos := make([]int, len(g.Ops)) // op -> stage index
	for s, stage := range stages {
		for _, i := range stage {
			pos[i] = s
		}
	}
	consumers := g.Consumers()

	// lastUse resolves demand through OpOther forwarding: a consumer that
	// is itself an OpOther extends the buffer's life to that op's own
	// consumers, transitively. seen[c] == mark says c was already visited on
	// behalf of the buffer marked `mark`, so one slice serves every buffer.
	seen := make([]int, len(g.Ops))
	var lastUse func(i, mark int) (last, reads int)
	lastUse = func(i, mark int) (int, int) {
		last, reads := pos[i], 0
		for _, c := range consumers[i] {
			if seen[c] == mark {
				continue
			}
			seen[c] = mark
			if g.Ops[c].Kind == nn.OpOther {
				l, n := lastUse(c, mark)
				if l > last {
					last = l
				}
				reads += n
				continue
			}
			if pos[c] > last {
				last = pos[c]
			}
			reads++
		}
		return last, reads
	}

	bufs := make([]buffer, 0, len(g.Ops))
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind == nn.OpOther {
			continue
		}
		size := int64(op.Gemm.M) * int64(op.Gemm.N) * int64(h.OutputBytes) * int64(op.Count)
		b := buffer{op: i, size: size, birth: pos[i]}
		b.last, b.reads = lastUse(i, i+1)
		if b.reads == 0 {
			// A graph output: stays resident until the run completes.
			b.last = len(stages) - 1
		}
		bufs = append(bufs, b)
	}
	rep.Buffers = len(bufs)

	// Birth events per stage, in op order (deterministic): bufs sorted stably
	// by birth stage, born[from[s]:from[s+1]] being the buffers stage s
	// produces.
	from := make([]int, len(stages)+1)
	for i := range bufs {
		from[bufs[i].birth]++
	}
	for s := 1; s <= len(stages); s++ {
		from[s] += from[s-1]
	}
	born := make([]*buffer, len(bufs))
	for i := len(bufs) - 1; i >= 0; i-- {
		b := &bufs[i]
		from[b.birth]--
		born[from[b.birth]] = b
	}

	alloc := newArena(h.GlobalMemBytes)
	var live []*buffer
	var liveBytes, workingPeak int64
	for s := range stages {
		// Free buffers whose last consumer ran in an earlier stage.
		keep := live[:0]
		for _, b := range live {
			if b.last < s {
				if !b.spilled {
					alloc.release(b.off, b.size)
				}
				liveBytes -= b.size
			} else {
				keep = append(keep, b)
			}
		}
		live = keep

		for _, b := range born[from[s]:from[s+1]] {
			liveBytes += b.size
			off, ok := alloc.alloc(b.size)
			if ok {
				b.off = off
			} else {
				b.spilled = true
				rep.SpilledBuffers++
				rep.SpillBytes += float64(b.size) * float64(1+b.reads)
			}
			live = append(live, b)
		}
		if liveBytes > workingPeak {
			workingPeak = liveBytes
		}
	}
	rep.PeakBytes = alloc.peak
	rep.WorkingSetBytes = workingPeak
	return rep
}

// arena is an offset-based first-fit allocator over [0, cap) with a sorted
// free list and neighbor merging on free. Every outstanding allocation is
// tracked by offset, so a double release, a release of a never-allocated
// offset, or a release with the wrong size panics instead of silently
// corrupting the free list — those were representable before and would have
// surfaced as impossible peak/spill numbers far from the cause.
type arena struct {
	cap  int64 // 0 = unbounded
	free []span
	peak int64
	// used maps each outstanding allocation's offset to its size; inUse is
	// their sum and can never go negative (release panics first).
	used  map[int64]int64
	inUse int64
}

type span struct{ off, len int64 }

func newArena(capacity int64) *arena {
	a := &arena{cap: capacity, used: make(map[int64]int64)}
	limit := capacity
	if limit <= 0 {
		limit = int64(1) << 62 // unbounded
	}
	a.free = []span{{off: 0, len: limit}}
	return a
}

// alloc carves the lowest-offset free span that fits.
func (a *arena) alloc(size int64) (int64, bool) {
	if size <= 0 {
		return 0, true
	}
	for i := range a.free {
		if a.free[i].len >= size {
			off := a.free[i].off
			a.free[i].off += size
			a.free[i].len -= size
			if a.free[i].len == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			if end := off + size; end > a.peak {
				a.peak = end
			}
			a.used[off] = size
			a.inUse += size
			return off, true
		}
	}
	return 0, false
}

// release returns a span to the list, merging with adjacent neighbors. The
// span must exactly match a live allocation from alloc.
func (a *arena) release(off, size int64) {
	if size <= 0 {
		return
	}
	got, ok := a.used[off]
	if !ok {
		panic(fmt.Sprintf("graphrt: arena release of offset %d with no live allocation (double free?)", off))
	}
	if got != size {
		panic(fmt.Sprintf("graphrt: arena release of offset %d with size %d, allocated %d", off, size, got))
	}
	delete(a.used, off)
	a.inUse -= size
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{off: off, len: size}
	// Merge with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].len == a.free[i+1].off {
		a.free[i].len += a.free[i+1].len
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].len == a.free[i].off {
		a.free[i-1].len += a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}
