package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mikpoly/internal/hw"
)

// TraceEvent records one task's residency on a PE.
type TraceEvent struct {
	// PE is the processing engine the task ran on.
	PE int
	// Tag is the task's region tag.
	Tag int
	// Start and End bound the task's residency in cycles.
	Start, End float64
}

// RunTrace executes like Run but also returns the per-task execution trace —
// the raw data behind wave diagrams like the paper's Fig. 15(b/c). Tracing
// always uses the event loop (the analytic fast path has no per-task
// timeline), so prefer Run when only aggregates are needed.
func RunTrace(h hw.Hardware, tasks []Task) (Result, []TraceEvent) {
	if err := h.Validate(); err != nil {
		panic(err)
	}
	if len(tasks) == 0 {
		return Result{PEBusy: make([]float64, h.NumPEs)}, nil
	}
	var events []TraceEvent
	collect := func(e TraceEvent) { events = append(events, e) }
	var res Result
	switch h.Scheduler {
	case hw.ScheduleStaticMaxMin:
		res = runEventLoop(h, staticAssign(h, tasks, nil), collect, nil)
	default:
		res = runEventLoop(h, dynamicQueue(tasks), collect, nil)
	}
	return res, events
}

// Timeline renders a trace as ASCII art: one row per PE (subsampled to at
// most maxPEs rows), time bucketed into width columns, each cell showing the
// region letter ('A' + tag) occupying most of that bucket, '.' when idle.
func Timeline(events []TraceEvent, numPEs, width, maxPEs int) string {
	if len(events) == 0 {
		return "(no events)"
	}
	if width < 8 {
		width = 8
	}
	if maxPEs < 1 {
		maxPEs = 1
	}
	var makespan float64
	for _, e := range events {
		if e.End > makespan {
			makespan = e.End
		}
	}
	if makespan <= 0 {
		return "(empty timeline)"
	}

	step := 1
	if numPEs > maxPEs {
		step = (numPEs + maxPEs - 1) / maxPEs
	}
	byPE := make(map[int][]TraceEvent)
	for _, e := range events {
		if e.PE%step == 0 {
			byPE[e.PE] = append(byPE[e.PE], e)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %.0f cycles (each column ≈ %.0f cycles)\n", makespan, makespan/float64(width))
	pes := make([]int, 0, len(byPE))
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		row := make([]byte, width)
		occupied := make([]float64, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range byPE[pe] {
			c0 := int(e.Start / makespan * float64(width))
			c1 := int(math.Ceil(e.End / makespan * float64(width)))
			for c := c0; c < c1 && c < width; c++ {
				bStart := float64(c) / float64(width) * makespan
				bEnd := float64(c+1) / float64(width) * makespan
				overlap := math.Min(e.End, bEnd) - math.Max(e.Start, bStart)
				if overlap > occupied[c] {
					occupied[c] = overlap
					row[c] = byte('A' + e.Tag%26)
				}
			}
		}
		fmt.Fprintf(&b, "PE%-4d |%s|\n", pe, row)
	}
	return strings.TrimRight(b.String(), "\n")
}
