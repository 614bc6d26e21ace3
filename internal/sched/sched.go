// Package sched is the SLO-aware multi-tenant request scheduler in front of
// the graph runtime: per-tenant queues with priority classes, token-budget
// admission, and chunked prefill interleaved with continuous decode waves.
//
// The scheduler thinks in *waves*. Each wave admits what the token budget
// allows, builds one batched decode step over every running sequence
// (bucketed by page-padded KV length), carves a bounded chunk off the
// longest-waiting prefill backlog, executes both through an Executor, and
// advances a virtual cycle clock by the executed cycles. Because the
// executor's costs come from the deterministic device simulator, the whole
// serving loop replays bit-for-bit: goodput, latency quantiles, and decode
// digests are exact values a CI gate can compare, not noisy measurements.
//
// Chunked prefill is the latency mechanism: a long prompt never runs as one
// monolithic graph alongside decode. Its chunk budget adapts — sized from a
// running cycles-per-token estimate so that prefill plus the decode wave
// fits the decode-step SLO bound, halved after a violation, grown while
// comfortably under — and becomes the full configured chunk when no decode
// is in flight.
//
// KV state lives in a kvcache.Manager: admission allocates the prompt's
// pages (sharing every prefix block the cache already holds — shared blocks
// skip prefill compute entirely), decode appends through it, parallel
// sampling forks it, and completion or failure releases it. A request whose
// executor crashes releases its pages on the spot; the chaos harness holds
// the scheduler to exactly zero leaked pages.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/stats"
)

// Pool names passed to the Executor. Every executor runs both on its one
// device and ignores them.
const (
	PoolPrefill = "prefill"
	PoolDecode  = "decode"
)

// NumPriorities is the number of priority classes (0 is most urgent).
const NumPriorities = 3

// Executor runs one graph and returns its device cost in cycles. The
// scheduler serializes calls; implementations need not be concurrency-safe
// for scheduler use. pool is PoolPrefill or PoolDecode.
type Executor interface {
	ExecGraph(ctx context.Context, g nn.Graph, pool string) (cycles float64, err error)
}

// ExecutorFunc adapts a function to Executor.
type ExecutorFunc func(ctx context.Context, g nn.Graph, pool string) (float64, error)

// ExecGraph implements Executor.
func (f ExecutorFunc) ExecGraph(ctx context.Context, g nn.Graph, pool string) (float64, error) {
	return f(ctx, g, pool)
}

// ErrRejected reports an admission rejection (token budget exceeded by a
// request that could never fit, or a closed scheduler).
var ErrRejected = errors.New("sched: rejected")

// ErrDeadline reports a request shed because it provably could not meet its
// deadline: its queue wait alone already exceeded the deadline budget, so
// running it would burn device cycles on a guaranteed SLO miss. The serve
// layer maps this to 504, counted separately from admission 429s.
var ErrDeadline = errors.New("sched: deadline exceeded")

// Config tunes the scheduler. Zero fields take defaults.
type Config struct {
	// HW is the hardware model used to convert SLO milliseconds to cycles
	// and to charge KV page-copy bandwidth (required).
	HW hw.Hardware
	// KV configures the paged KV-cache manager the scheduler owns.
	KV kvcache.Config
	// PrefillChunk is the largest prefill chunk in tokens (default 256).
	// The live chunk adapts below this; it never goes under one KV page.
	PrefillChunk int
	// StepSLOMs bounds one decode step (the full wave: prefill and decode
	// share the device) in milliseconds (default 50).
	StepSLOMs float64
	// TTFTSLOMs bounds time-to-first-token in milliseconds (default 1000).
	TTFTSLOMs float64
	// MaxInFlightTokens is the admission token budget: the summed mass
	// (prompt + decode·branches) of running requests (default 262144).
	MaxInFlightTokens int64

	// Adaptive replaces the static token-budget gate with an AIMD
	// concurrency limiter: the admitted token mass shrinks multiplicatively
	// when a decode wave violates the step SLO and grows additively while
	// comfortably under it, with growth accelerated when the EWMA queue
	// wait signals backlog pressure. MaxInFlightTokens stays the hard
	// ceiling; AdaptiveMinTokens the floor.
	Adaptive          bool
	AdaptiveMinTokens int64 // default 4096

	// ShedDeadlines drops queued requests whose deadline has provably
	// passed (queue wait alone exceeds the deadline budget) with
	// ErrDeadline before they consume device cycles. Requests without an
	// explicit DeadlineCycles use the TTFT SLO bound as their deadline.
	ShedDeadlines bool

	// DisableKVPreempt turns KV preemption off, so a request whose decode
	// append finds the arena full fails. With it on (the default) the
	// least-important running requests (lowest priority class, then
	// youngest arrival) are preempted when the paged KV arena runs out
	// under decode pressure: their pages are released through the normal
	// refcount machinery and they park in a restore queue, resuming later
	// via prefix-cache recompute — bitwise-identical to uninterrupted
	// execution because KV words and decode tokens are pure functions of
	// (token, position). The undefended reference of the overload harness
	// and the tests that must see exhaustion fail a request turn it off.
	DisableKVPreempt bool

	// RecordEvents keeps a bounded in-memory log of overload decisions
	// (preempt, restore, deadline sheds, limit cuts) for harness
	// artifacts. Off, the defenses format no event detail at all.
	RecordEvents bool
}

// maxDecodeBatch bounds one decode graph's batch.
const maxDecodeBatch = 8

// decodeBucket is the KV-length bucketing granule for decode batching in
// tokens (never below the KV page size). Pages keep the *memory* granularity
// fine; the bucket keeps the *batching* granularity coarse enough that one
// wave does not shatter into a graph per sequence. The padding this costs is
// accounted exactly in Stats.PaddedKVTokens/PaddedKVBytes.
const decodeBucket = 128

// kvLowWater and kvHighWater are the preemption hysteresis fractions of
// allocatable (free+cached) pages: pressure preemption starts below the low
// water mark and frees until the high water mark; parked requests restore
// only above it.
const (
	kvLowWater  = 1.0 / 16
	kvHighWater = 1.0 / 4
)

func (c Config) withDefaults() Config {
	if c.PrefillChunk <= 0 {
		c.PrefillChunk = 256
	}
	if c.StepSLOMs <= 0 {
		c.StepSLOMs = 50
	}
	if c.TTFTSLOMs <= 0 {
		c.TTFTSLOMs = 1000
	}
	if c.MaxInFlightTokens <= 0 {
		c.MaxInFlightTokens = 262144
	}
	if c.AdaptiveMinTokens <= 0 {
		c.AdaptiveMinTokens = 4096
	}
	if c.AdaptiveMinTokens > c.MaxInFlightTokens {
		c.AdaptiveMinTokens = c.MaxInFlightTokens
	}
	return c
}

// Request is one serving request.
type Request struct {
	ID       uint64
	Tenant   string
	Priority int // 0..NumPriorities-1, 0 most urgent; out of range clamps
	Prompt   []int32
	Decode   int // tokens to generate per branch
	Fanout   int // parallel sampling branches (<=1 means 1)

	// DeadlineCycles is the request's deadline budget in device cycles,
	// relative to its arrival (0 = none; with Config.ShedDeadlines the
	// TTFT SLO bound applies instead). A queued request whose wait alone
	// exceeds the budget is shed with ErrDeadline.
	DeadlineCycles float64
}

// Mass is the admission cost of a request in tokens: the prompt plus every
// branch's generation budget. This is what the token-budget admission
// control and the serve layer's 429 check count.
func (r Request) Mass() int64 {
	fan := r.Fanout
	if fan < 1 {
		fan = 1
	}
	return int64(len(r.Prompt)) + int64(r.Decode)*int64(fan)
}

// Result is the outcome of one request.
type Result struct {
	ID           uint64
	Tenant       string
	Err          error
	ReusedTokens int     // prompt tokens satisfied by KV prefix hits
	TTFTCycles   float64 // arrival → first decode token
	DecodeTokens int     // tokens generated across branches
	MaxStepCycle float64 // worst decode-step latency observed
	Digest       uint64  // fold of every branch's final KV digest
	SLOGood      bool    // TTFT and every decode step within bounds
}

// Stats is the scheduler's cumulative accounting, exported to /stats and
// /metrics as mik_sched_*.
type Stats struct {
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	InFlightTokens int64 `json:"inflight_tokens"`
	BudgetTokens   int64 `json:"budget_tokens"`

	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	SLOGood   int64 `json:"slo_good"`

	Waves          int64   `json:"waves"`
	PrefillChunks  int64   `json:"prefill_chunks"`
	PrefillTokens  int64   `json:"prefill_tokens"`
	ReusedTokens   int64   `json:"reused_tokens"`
	DecodeSteps    int64   `json:"decode_steps"`
	PrefillCycles  float64 `json:"prefill_cycles"`
	DecodeCycles   float64 `json:"decode_cycles"`
	CopyCycles     float64 `json:"copy_cycles"`
	StepViolations int64   `json:"step_violations"`
	ChunkTokens    int     `json:"chunk_tokens"` // last granted prefill budget

	// PaddedKVTokens/Bytes account the decode-bucket padding exactly:
	// attention work charged beyond each sequence's true KV length.
	PaddedKVTokens int64 `json:"padded_kv_tokens"`
	PaddedKVBytes  int64 `json:"padded_kv_bytes"`

	// Overload-defense accounting. AdaptiveLimitTokens is the AIMD
	// limiter's current admitted-mass ceiling (equals BudgetTokens when
	// the limiter is off); DeadlineSheds counts queued requests dropped
	// with ErrDeadline; Preemptions/Restores count KV-pressure parks and
	// their prefix-recompute resumes; Parked is the restore queue depth.
	AdaptiveLimitTokens int64 `json:"adaptive_limit_tokens"`
	DeadlineSheds       int64 `json:"deadline_sheds"`
	Preemptions         int64 `json:"preemptions"`
	Restores            int64 `json:"restores"`
	Parked              int   `json:"parked"`
	// MaxDeferredWaves is the high-water mark of consecutive waves any
	// single request's prefill went ungranted (starvation-guard bound).
	MaxDeferredWaves int64 `json:"max_deferred_waves"`
}

// reqState tracks one admitted request through prefill and decode.
type reqState struct {
	req     Request
	mass    int64
	arrival float64 // clock at admission enqueue (set by the driver)

	seqs    []*kvcache.Sequence // branch 0 first; forks appear after prefill
	need    int                 // prompt tokens requiring prefill compute
	filled  int                 // prefill tokens executed so far
	decoded []int               // decode steps completed per branch

	// gen is the per-branch generated-token history, kept only while KV
	// preemption is on: it is the restore recipe (prompt ++ gen[b] rebuilds the
	// branch's exact KV state via prefix-cache recompute).
	gen      [][]int32
	parked   bool // preempted, waiting in the restore queue
	deferred int  // consecutive waves this request's prefill got nothing

	firstTok float64 // clock at first decode token (-1 until then)
	maxStep  float64
	sloBad   bool
	done     bool         // finished (completed or failed); never finish twice
	deliver  func(Result) // non-nil for online submits
}

func (st *reqState) prefillDone() bool { return st.filled >= st.need }

func (st *reqState) decodeDone() bool {
	for _, d := range st.decoded {
		if d < st.req.Decode {
			return false
		}
	}
	return true
}

// Scheduler is the multi-tenant serving scheduler. One goroutine drives
// waves (Loop or Replay); Submit/Stats are safe from any goroutine.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config
	kv   *kvcache.Manager
	exec Executor

	stepBound float64 // cycles
	ttftBound float64 // cycles

	queues  map[string]*[NumPriorities][]*reqState
	tenants []string // sorted; rotation makes round-robin fair
	rr      int

	inflight int64
	running  []*reqState
	parked   []*reqState // preempted requests awaiting restore (FIFO)

	// lastDecode is the decode wave before this one, whose step graphs
	// decodeGraphLocked reuses; lastPrefill holds the prefill graphs of the
	// last wave that granted prefill (graphs and chunk lengths only, no
	// request), which buildPrefillLocked reuses.
	lastDecode  []decodeJob
	lastPrefill []prefillJob

	chunk         int     // last prefill budget granted (stats)
	cyclesPerTk   float64 // EWMA prefill cycles per token
	guardCooldown int     // waves until the starvation guard may fire again

	limit     float64 // AIMD admitted-mass ceiling (tokens; Adaptive only)
	queueWait float64 // EWMA queue wait at admission (cycles)

	clock     float64
	lastCopy  int64 // kv CopiedBytes already charged
	stats     Stats
	steps     quantiles
	ttfts     quantiles
	events    []Event
	collected []Result // replay results
	closed    bool
}

// New builds a scheduler over its own KV manager.
func New(exec Executor, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	if err := cfg.HW.Validate(); err != nil {
		panic(fmt.Sprintf("sched: %v", err))
	}
	s := &Scheduler{
		cfg:       cfg,
		kv:        kvcache.New(cfg.KV),
		exec:      exec,
		stepBound: cfg.StepSLOMs / 1e3 * cfg.HW.ClockHz,
		ttftBound: cfg.TTFTSLOMs / 1e3 * cfg.HW.ClockHz,
		queues:    make(map[string]*[NumPriorities][]*reqState),
	}
	s.limit = float64(cfg.MaxInFlightTokens)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// KV exposes the scheduler's KV manager (stats, leak assertions).
func (s *Scheduler) KV() *kvcache.Manager { return s.kv }

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Stats snapshots the accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Running = len(s.running)
	st.InFlightTokens = s.inflight
	st.BudgetTokens = s.cfg.MaxInFlightTokens
	st.ChunkTokens = s.chunk
	st.Parked = len(s.parked)
	st.AdaptiveLimitTokens = s.cfg.MaxInFlightTokens
	if s.cfg.Adaptive {
		st.AdaptiveLimitTokens = int64(s.limit)
	}
	queued := 0
	for _, q := range s.queues {
		for p := range q {
			queued += len(q[p])
		}
	}
	st.Queued = queued
	return st
}

// StepQuantileMs returns the q-quantile (0..1) of observed decode-step
// latency in milliseconds.
func (s *Scheduler) StepQuantileMs(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.HW.CyclesToSeconds(s.steps.quantile(q)) * 1e3
}

// CanAdmit reports whether a request of the given mass could ever fit the
// token budget — the serve layer's 429-vs-queue distinction.
func (s *Scheduler) CanAdmit(mass int64) bool {
	return mass <= s.cfg.MaxInFlightTokens
}

// EstimateBacklogSeconds estimates how long the scheduler needs to drain its
// current commitment: the summed token mass of running plus queued requests,
// priced at the EWMA per-token prefill cost on this hardware's clock. Zero
// when no per-token cost has been observed yet or nothing is pending. The
// serve layer turns this into a proportional Retry-After on token-budget
// rejections, so clients back off in step with actual queue depth instead of
// hammering a saturated replica every second.
func (s *Scheduler) EstimateBacklogSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cyclesPerTk <= 0 || s.cfg.HW.ClockHz <= 0 {
		return 0
	}
	mass := s.inflight
	for _, st := range s.parked {
		mass += st.mass
	}
	for _, q := range s.queues {
		for p := range q {
			for _, st := range q[p] {
				mass += st.mass
			}
		}
	}
	if mass <= 0 {
		return 0
	}
	return float64(mass) * s.cyclesPerTk / s.cfg.HW.ClockHz
}

// enqueueLocked files a request under its tenant and priority.
func (s *Scheduler) enqueueLocked(st *reqState) {
	if st.req.Decode < 1 {
		st.req.Decode = 1
	}
	st.mass = st.req.Mass()
	p := st.req.Priority
	if p < 0 {
		p = 0
	}
	if p >= NumPriorities {
		p = NumPriorities - 1
	}
	st.req.Priority = p
	q, ok := s.queues[st.req.Tenant]
	if !ok {
		q = new([NumPriorities][]*reqState)
		s.queues[st.req.Tenant] = q
		s.tenants = append(s.tenants, st.req.Tenant)
		sort.Strings(s.tenants)
	}
	q[p] = append(q[p], st)
}

// admitLocked moves queued requests into the running set while the token
// budget and KV arena allow: priority classes strictly in order, tenants
// round-robin within a class (rotating start so no tenant is structurally
// first), FIFO within a tenant. Preempted requests restore first — they
// were admitted once and hold a prior claim on the arena.
func (s *Scheduler) admitLocked() {
	s.restoreParkedLocked()
	for p := 0; p < NumPriorities; p++ {
		for {
			admittedAny := false
			n := len(s.tenants)
			for i := 0; i < n; i++ {
				tn := s.tenants[(s.rr+i)%n]
				q := s.queues[tn]
				if len(q[p]) == 0 {
					continue
				}
				st := q[p][0]
				if !s.admitFitsLocked(st.mass) {
					continue
				}
				seq, err := s.kv.NewSequence(st.req.Tenant, st.req.Prompt)
				if err != nil {
					// Arena full: stop admitting entirely this wave;
					// running sequences will release pages.
					return
				}
				q[p] = q[p][1:]
				st.seqs = []*kvcache.Sequence{seq}
				st.need = len(st.req.Prompt) - seq.Reused()
				st.firstTok = -1
				fan := st.req.Fanout
				if fan < 1 {
					fan = 1
				}
				st.decoded = make([]int, 1, fan)
				if !s.cfg.DisableKVPreempt {
					st.gen = make([][]int32, 1, fan)
				}
				s.running = append(s.running, st)
				s.inflight += st.mass
				s.stats.Admitted++
				s.stats.ReusedTokens += int64(seq.Reused())
				if s.cfg.Adaptive {
					w := s.clock - st.arrival
					if s.queueWait == 0 {
						s.queueWait = w
					} else {
						s.queueWait = 0.7*s.queueWait + 0.3*w
					}
				}
				s.rr = (s.rr + i + 1) % n
				admittedAny = true
			}
			if !admittedAny {
				break
			}
		}
	}
}

// admitFitsLocked is the admission budget gate. The static path compares
// against MaxInFlightTokens; the adaptive path compares against the AIMD
// limit, with an idle-scheduler escape so a request wider than a collapsed
// limit still starts once nothing else is running (liveness).
func (s *Scheduler) admitFitsLocked(mass int64) bool {
	if !s.cfg.Adaptive {
		return s.inflight+mass <= s.cfg.MaxInFlightTokens
	}
	if s.inflight == 0 {
		return true
	}
	return s.inflight+mass <= int64(s.limit)
}

// decodeEntry is one branch taking part in this wave's decode step.
type decodeEntry struct {
	st     *reqState
	branch int
}

// waveExec is the executor work one wave produced.
type waveExec struct {
	prefill []prefillJob
	decode  []decodeJob
}

type prefillJob struct {
	st    *reqState
	chunk int
	g     nn.Graph
}

type decodeJob struct {
	entries []decodeEntry
	kv      int // padded KV length the step graph was built for
	g       nn.Graph
}

// decodeGraphLocked returns the step graph for n branches at padded KV length
// kv. A sequence decodes at one padded length for up to decodeBucket waves, so
// the wave before this one has usually built the same graph: it is looked for
// among that wave's jobs first, and nothing older is kept. Prefill graphs
// follow the same rule in prefillGraphLocked. Both rely on a Graph being
// read-only once built, so one graph may run in any number of waves.
func (s *Scheduler) decodeGraphLocked(n, kv int) nn.Graph {
	for _, job := range s.lastDecode {
		if len(job.entries) == n && job.kv == kv {
			return job.g
		}
	}
	return nn.Llama2Decode(n, kv)
}

// buildDecodeLocked forms the decode wave: every running branch with
// prefill complete and tokens left, bucketed by page-padded KV length so
// one graph's members share a shape without padding past the page boundary.
func (s *Scheduler) buildDecodeLocked() []decodeJob {
	var decode []decodeJob
	q := decodeBucket
	if pt := s.kv.Config().TokensPerPage; q < pt {
		q = pt
	}
	buckets := make(map[int][]decodeEntry)
	var lens []int
	for _, st := range s.running {
		if !st.prefillDone() {
			continue
		}
		for b := range st.seqs {
			if st.decoded[b] >= st.req.Decode {
				continue
			}
			kvLen := st.seqs[b].Len()
			padded := (kvLen + q - 1) / q * q
			s.stats.PaddedKVTokens += int64(padded - kvLen)
			s.stats.PaddedKVBytes += int64(padded-kvLen) * kvcache.BytesPerToken
			if _, ok := buckets[padded]; !ok {
				lens = append(lens, padded)
			}
			buckets[padded] = append(buckets[padded], decodeEntry{st, b})
		}
	}
	sort.Ints(lens)
	for _, kv := range lens {
		group := buckets[kv]
		for len(group) > 0 {
			n := len(group)
			if n > maxDecodeBatch {
				n = maxDecodeBatch
			}
			decode = append(decode, decodeJob{entries: group[:n], kv: kv, g: s.decodeGraphLocked(n, kv)})
			group = group[n:]
		}
	}
	s.lastDecode = decode
	return decode
}

// prefillGraphLocked returns the prefill graph for an n-token chunk: the one
// the last prefill wave ran when a chunk there had the same length (most
// chunks are the full configured chunk, wave after wave), else a new one.
func (s *Scheduler) prefillGraphLocked(n int) nn.Graph {
	for _, job := range s.lastPrefill {
		if job.chunk == n {
			return job.g
		}
	}
	return nn.Llama2Prefill(1, n)
}

// starvedWaves is the starvation-guard bound: a request whose prefill went
// ungranted this many consecutive waves is owed a chunk regardless of
// decode slack or higher-priority contention.
const starvedWaves = 4

// buildPrefillLocked carves prefill chunks under a token budget: starved
// requests first (most-deferred first, so the per-request guard bound
// holds even when multiple prefills compete), then priority classes in
// order, then the running set's admission order, each request contributing
// at most one chunk per wave. Requests whose prefill got nothing this wave
// age their deferral counter; granted ones reset it.
func (s *Scheduler) buildPrefillLocked(budget int) []prefillJob {
	var prefill []prefillJob
	if budget > s.cfg.PrefillChunk {
		budget = s.cfg.PrefillChunk
	}
	s.chunk = budget
	granted := make(map[*reqState]bool)
	grant := func(st *reqState) {
		n := st.need - st.filled
		if n > budget {
			n = budget
		}
		prefill = append(prefill, prefillJob{
			st: st, chunk: n, g: s.prefillGraphLocked(n),
		})
		budget -= n
		granted[st] = true
	}
	// Starved requests jump the priority order, most-deferred first
	// (admission order breaks ties deterministically).
	if budget > 0 {
		var starved []*reqState
		for _, st := range s.running {
			if !st.done && !st.prefillDone() && st.deferred >= starvedWaves {
				starved = append(starved, st)
			}
		}
		sort.SliceStable(starved, func(i, j int) bool { return starved[i].deferred > starved[j].deferred })
		for _, st := range starved {
			if budget <= 0 {
				break
			}
			grant(st)
		}
	}
	for p := 0; p < NumPriorities && budget > 0; p++ {
		for _, st := range s.running {
			if budget <= 0 {
				break
			}
			if st.done || st.req.Priority != p || st.prefillDone() || granted[st] {
				continue
			}
			grant(st)
		}
	}
	for _, st := range s.running {
		if st.done || st.prefillDone() {
			continue
		}
		if granted[st] {
			st.deferred = 0
			continue
		}
		st.deferred++
		if int64(st.deferred) > s.stats.MaxDeferredWaves {
			s.stats.MaxDeferredWaves = int64(st.deferred)
		}
	}
	if len(prefill) > 0 {
		s.lastPrefill = s.lastPrefill[:0]
		for _, job := range prefill {
			s.lastPrefill = append(s.lastPrefill, prefillJob{chunk: job.chunk, g: job.g})
		}
	}
	return prefill
}

// prefillBudgetLocked sizes this wave's prefill token budget from the
// *measured* decode cycles of the same wave: the chunk fits exactly into
// the slack the decode-step SLO bound leaves, at the running cycles-per-
// token estimate. With no decode in flight the budget is the full configured
// chunk. When decode alone consumes the
// bound, prefill defers — but never more than starvedWaves in a row for
// any single request (per-request starvation guard: once the most-starved
// request has waited out the bound, the wave grants one page regardless).
func (s *Scheduler) prefillBudgetLocked(decodeActive bool, decodeCycles float64) int {
	if !decodeActive {
		return s.cfg.PrefillChunk
	}
	pageTokens := s.kv.Config().TokensPerPage
	if s.cyclesPerTk <= 0 {
		// No cost estimate yet: seed it with one conservative page.
		return pageTokens
	}
	slack := s.stepBound - decodeCycles
	fit := int(slack / s.cyclesPerTk)
	fit -= fit % pageTokens // page-granular chunks bound the shape vocabulary
	if fit < pageTokens {
		if s.guardCooldown > 0 {
			s.guardCooldown--
			return 0
		}
		for _, st := range s.running {
			if !st.done && !st.prefillDone() && st.deferred >= starvedWaves {
				// Starvation guard: bounded overshoot, paced to at most
				// one guard page per starvedWaves+1 waves so sustained
				// contention cannot turn every wave into an SLO
				// violation. buildPrefillLocked hands the page to the
				// most-starved request, so per-request deferral stays
				// bounded by the guard cadence times the prefill queue
				// length.
				s.guardCooldown = starvedWaves
				return pageTokens
			}
		}
		return 0 // defer; decode already fills the bound
	}
	return fit
}

// runWave executes one full wave. Decode runs first so the prefill chunk
// can be sized to the slack the SLO bound leaves after the wave's actual
// decode cycles; the executor is always called outside the scheduler lock
// so an online executor (real devices) never blocks Submit or Stats. It
// returns the cycles the wave consumed and whether it did any work.
func (s *Scheduler) runWave(ctx context.Context) (float64, bool) {
	s.mu.Lock()
	s.shedLateLocked()
	s.admitLocked()
	s.preemptForPressureLocked()
	decode := s.buildDecodeLocked()
	s.mu.Unlock()

	var prefillCycles, decodeCycles float64
	decodeErr := make([]error, len(decode))
	for i, job := range decode {
		c, err := s.exec.ExecGraph(ctx, job.g, PoolDecode)
		decodeErr[i] = err
		if err == nil {
			decodeCycles += c
		}
	}

	s.mu.Lock()
	budget := s.prefillBudgetLocked(len(decode) > 0, decodeCycles)
	prefill := s.buildPrefillLocked(budget)
	s.mu.Unlock()

	prefillErr := make([]error, len(prefill))
	for i, job := range prefill {
		c, err := s.exec.ExecGraph(ctx, job.g, PoolPrefill)
		prefillErr[i] = err
		if err == nil {
			prefillCycles += c
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(prefill) == 0 && len(decode) == 0 {
		return 0, false
	}
	w := waveExec{prefill: prefill, decode: decode}
	return s.applyWaveLocked(w, prefillCycles, decodeCycles, prefillErr, decodeErr), true
}

// applyWaveLocked folds execution results back into scheduler state and
// returns the wave's cycle cost.
func (s *Scheduler) applyWaveLocked(w waveExec, prefillCycles, decodeCycles float64, prefillErr, decodeErr []error) float64 {
	s.stats.Waves++

	// Prefill progression (and failures).
	for i, job := range w.prefill {
		if job.st.done {
			continue // already finished via a failure path
		}
		if err := prefillErr[i]; err != nil {
			s.finishLocked(job.st, fmt.Errorf("prefill: %w", err))
			continue
		}
		job.st.filled += job.chunk
		s.stats.PrefillChunks++
		s.stats.PrefillTokens += int64(job.chunk)
		if job.st.prefillDone() {
			s.forkLocked(job.st)
		}
	}
	// Requests admitted with a fully reused prompt never see a prefill
	// job; fork them as soon as they are running.
	for _, st := range s.running {
		if st.prefillDone() && len(st.decoded) < cap(st.decoded) {
			s.forkLocked(st)
		}
	}

	// Update the prefill cost model.
	var prefTokens int
	for i, job := range w.prefill {
		if prefillErr[i] == nil {
			prefTokens += job.chunk
		}
	}
	if prefTokens > 0 && prefillCycles > 0 {
		per := prefillCycles / float64(prefTokens)
		if s.cyclesPerTk == 0 {
			s.cyclesPerTk = per
		} else {
			s.cyclesPerTk = 0.7*s.cyclesPerTk + 0.3*per
		}
	}

	// Charge COW page-copy bandwidth to the decode side (appends cause it).
	kvStats := s.kv.Stats()
	copied := kvStats.CopiedBytes - s.lastCopy
	s.lastCopy = kvStats.CopiedBytes
	copyCycles := sim.TransferCycles(s.cfg.HW, float64(copied))
	decodeCycles += copyCycles
	s.stats.CopyCycles += copyCycles

	// Prefill and decode share the device, so they serialize and a decode
	// step lasts the whole wave.
	wave := prefillCycles + decodeCycles
	s.stats.PrefillCycles += prefillCycles
	s.stats.DecodeCycles += decodeCycles
	s.clock += wave
	now := s.clock

	// Decode progression: append one token per surviving branch.
	decodedAny := false
	for i, job := range w.decode {
		if err := decodeErr[i]; err != nil {
			for _, e := range job.entries {
				if !e.st.done {
					s.finishLocked(e.st, fmt.Errorf("decode: %w", err))
				}
			}
			continue
		}
		decodedAny = true
		for _, e := range job.entries {
			st := e.st
			if st.done || st.parked || e.branch >= len(st.seqs) {
				continue // request already failed or was preempted this wave
			}
			seq := st.seqs[e.branch]
			tok := nextToken(s.kv.Digest(seq), e.branch)
			if err := s.appendWithPreemptLocked(st, seq, tok); err != nil {
				s.finishLocked(st, fmt.Errorf("kv append: %w", err))
				continue
			}
			if st.parked {
				continue // preempted itself under KV pressure; restored later
			}
			if !s.cfg.DisableKVPreempt {
				st.gen[e.branch] = append(st.gen[e.branch], tok)
			}
			st.decoded[e.branch]++
			s.stats.DecodeSteps++
			if st.firstTok < 0 {
				st.firstTok = now
				s.ttfts.add(now - st.arrival)
			}
			if wave > st.maxStep {
				st.maxStep = wave
			}
			if wave > s.stepBound {
				st.sloBad = true
			}
		}
	}
	if decodedAny {
		s.steps.add(wave)
		if wave > s.stepBound {
			s.stats.StepViolations++
		}
		s.adaptLimitLocked(wave)
	}

	// Completions. Collect first: finishLocked edits s.running in place,
	// so finishing while ranging over it would skip or repeat entries.
	var finished []*reqState
	for _, st := range s.running {
		if st.prefillDone() && st.decodeDone() {
			finished = append(finished, st)
		}
	}
	for _, st := range finished {
		s.finishLocked(st, nil)
	}
	return wave
}

// nextToken derives the branch's next generated token from its KV digest,
// so decode output depends on every KV word the branch can see — the
// bitwise sharing-on/off equality rides on this.
func nextToken(digest uint64, branch int) int32 {
	x := digest ^ uint64(branch+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 29
	return int32(x % 32000)
}

// forkLocked creates the request's remaining sampling branches once prefill
// completes. Forked branches share every page until their first divergent
// append triggers COW.
func (s *Scheduler) forkLocked(st *reqState) {
	for len(st.decoded) < cap(st.decoded) {
		st.seqs = append(st.seqs, s.kv.Fork(st.seqs[0]))
		st.decoded = append(st.decoded, 0)
		if !s.cfg.DisableKVPreempt {
			st.gen = append(st.gen, append([]int32(nil), st.gen[0]...))
		}
	}
}

// finishLocked completes a request (err == nil) or fails it, releasing its
// KV pages either way — the crash-no-leak invariant.
func (s *Scheduler) finishLocked(st *reqState, err error) {
	if st.done {
		panic(fmt.Sprintf("sched: request %d finished twice", st.req.ID))
	}
	st.done = true
	for i := range s.running {
		if s.running[i] == st {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	if len(s.running) == 0 {
		// An idle scheduler keeps no step graph alive.
		s.lastDecode, s.lastPrefill = nil, nil
	}
	var digest uint64
	decoded := 0
	reused := 0
	if len(st.seqs) > 0 {
		reused = st.seqs[0].Reused()
	}
	for b, seq := range st.seqs {
		digest ^= s.kv.Digest(seq) * uint64(2*b+1)
		s.kv.Release(seq)
		decoded += st.decoded[b]
	}
	st.seqs = nil
	s.inflight -= st.mass
	res := Result{
		ID:           st.req.ID,
		Tenant:       st.req.Tenant,
		Err:          err,
		ReusedTokens: reused,
		TTFTCycles:   st.firstTok - st.arrival,
		DecodeTokens: decoded,
		MaxStepCycle: st.maxStep,
		Digest:       digest,
		SLOGood:      err == nil && !st.sloBad && st.firstTok >= 0 && st.firstTok-st.arrival <= s.ttftBound,
	}
	if st.firstTok < 0 {
		res.TTFTCycles = 0
	}
	if err != nil {
		s.stats.Failed++
	} else {
		s.stats.Completed++
		if res.SLOGood {
			s.stats.SLOGood++
		}
	}
	if st.deliver != nil {
		st.deliver(res)
	} else {
		s.collected = append(s.collected, res)
	}
}

// pendingLocked reports whether any request is queued, running or parked.
func (s *Scheduler) pendingLocked() bool {
	if len(s.running) > 0 || len(s.parked) > 0 {
		return true
	}
	for _, q := range s.queues {
		for p := range q {
			if len(q[p]) > 0 {
				return true
			}
		}
	}
	return false
}

// quantiles keeps a deterministic bounded sample for latency quantiles,
// answered by the one nearest-rank estimator (stats.Percentile). Past the
// cap it thins by keeping every other future observation — exact for
// replay-scale counts, stable and allocation-bounded online.
type quantiles struct {
	vals   []float64
	stride int64
	seen   int64
}

const quantileCap = 8192

func (r *quantiles) add(v float64) {
	if r.stride == 0 {
		r.stride = 1
	}
	if r.seen%r.stride == 0 {
		if len(r.vals) >= quantileCap {
			// Thin: drop every other retained sample, double the stride.
			kept := r.vals[:0]
			for i := 0; i < len(r.vals); i += 2 {
				kept = append(kept, r.vals[i])
			}
			r.vals = kept
			r.stride *= 2
		}
		r.vals = append(r.vals, v)
	}
	r.seen++
}

func (r *quantiles) quantile(q float64) float64 {
	return stats.Percentile(r.vals, q*100)
}
