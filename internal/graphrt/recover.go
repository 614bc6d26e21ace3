package graphrt

import (
	"context"
	"errors"
	"fmt"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// ErrStageUnrecoverable marks a stage that exhausted the recovery ladder.
// Callers match it with errors.Is; the wrapping StageError carries the
// forensics.
var ErrStageUnrecoverable = errors.New("graphrt: stage unrecoverable")

// StageError is the typed failure of one graph stage after bounded
// escalation — the self-healing contract's "correct result or typed error"
// terminal state.
type StageError struct {
	Graph    string
	Stage    int
	Attempts int
	// Quarantined is the quarantined-PE set at failure time, for the
	// operator's postmortem.
	Quarantined []int
	Err         error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("graphrt: graph %s stage %d failed after %d attempts (quarantined PEs %v): %v",
		e.Graph, e.Stage, e.Attempts, e.Quarantined, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// stageOp is one GEMM op of a stage, retained so recovery can regenerate or
// replan the stage's task batch.
type stageOp struct {
	shape tensor.GemmShape
	count int
	prog  *poly.Program
}

// recoverySalt is the fault-injection salt of a recovery attempt: each
// attempt draws a fresh transient-fault stream and misses the stage memo. The
// attempt sits in the high word, which fixes the faults every rung draws and
// so the degraded-mode cycle counts the chaos tests pin.
func recoverySalt(attempt int) uint64 {
	return uint64(attempt) << 32
}

// observe feeds one stage outcome into the health registry, if configured.
func (r *Runtime) observe(v health.View, res sim.Result) {
	if r.cfg.Health != nil {
		r.cfg.Health.ObserveResult(v, res)
	}
}

// recoverStage walks the bounded escalation ladder for a stage whose
// execution came back dirty (faulted or stranded tasks):
//
//	rung 1 — retry in place: identical task batch, fresh salt. Clears
//	         transient faults at the cost of one stage re-execution. The
//	         batch is lowered again rather than kept, on firstHW — the view
//	         the stage first ran under, since task numbers depend on it —
//	         even if a PE was quarantined in between.
//	rung 2 — migrate: regenerate the same programs' tasks on the *current*
//	         degraded view H' (the initial failure's observation may have
//	         quarantined a PE) and run on the survivors.
//	rung 3 — replan: re-derive each op's program against H' through the
//	         compiler (hitting the (shape, fingerprint)-keyed cache), then
//	         run the new program — the paper's Cost(S, H') argument made
//	         operational. Rung 3 repeats, against the then-current view and
//	         under a fresh salt each time, until the budget is spent.
//
// Every attempt's outcome feeds the health registry, every dirty attempt's
// cycles are charged to the report (device time really elapsed), and the
// ladder gives up with a typed *StageError after maxStageAttempts total
// executions. On success the healed result is returned; its cycles are
// charged by the caller.
func (r *Runtime) recoverStage(ctx context.Context, g nn.Graph, si int, ops []stageOp,
	firstKey stageKey, firstHW hw.Hardware, first sim.Result, rep *Report) (sim.Result, error) {

	res := first
	for attempt := 1; ; attempt++ {
		// Charge the dirty attempt: its device cycles elapsed, and its
		// faults were absorbed by the ladder rather than surfaced.
		rep.GemmCycles += res.Cycles
		rep.RecoveredFaults += res.FaultedTasks + res.StrandedTasks

		if attempt >= maxStageAttempts {
			r.mu.Lock()
			r.agg.UnrecoverableStages++
			r.mu.Unlock()
			rep.FaultedTasks += res.FaultedTasks + res.StrandedTasks
			var quarantined []int
			if r.cfg.Health != nil {
				quarantined = r.cfg.Health.View().Quarantined
			}
			return res, &StageError{
				Graph: g.Name, Stage: si, Attempts: attempt,
				Quarantined: quarantined, Err: ErrStageUnrecoverable,
			}
		}
		if err := ctx.Err(); err != nil {
			return res, err
		}

		v, fp, hEff := r.healthView()
		key := firstKey
		key.fp, key.salt = fp, recoverySalt(attempt)
		lowerOn := firstHW
		if attempt >= 2 {
			// Migrate: same programs, current survivor set.
			lowerOn = hEff
		}
		if attempt >= 3 {
			// Replan every op against the degraded view. The compiler's
			// cache key carries fp, so this never dredges up a
			// healthy-mode program — and a repeat failure re-plans
			// against the then-current view.
			newOps := make([]stageOp, 0, len(ops))
			key.ops = digest{}
			for _, op := range ops {
				prog, degraded, err := r.planFn(ctx, op.shape)
				if err != nil {
					return res, &StageError{
						Graph: g.Name, Stage: si, Attempts: attempt,
						Quarantined: v.Quarantined, Err: err,
					}
				}
				rep.Plans++
				if degraded {
					rep.Degraded++
				}
				newOps = append(newOps, stageOp{shape: op.shape, count: op.count, prog: prog})
				key.add(r.progDigest(prog), op.count)
			}
			ops = newOps
		}

		res = *r.runStageCached(ctx, si, key, hEff, v, ops, lowerOn)
		r.observe(v, res)
		if res.Clean() {
			rep.RecoveredStages++
			r.mu.Lock()
			switch {
			case attempt == 1:
				r.agg.RetriedStages++
			case attempt == 2:
				r.agg.MigratedStages++
			default:
				r.agg.ReplannedStages++
			}
			r.mu.Unlock()
			return res, nil
		}
	}
}
