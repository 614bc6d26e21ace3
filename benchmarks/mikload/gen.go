package main

import (
	"fmt"
	"math"

	"mikpoly/internal/hw"
)

// rng is splitmix64: the harness's only source of randomness, seeded from
// -seed. The server under test sees nothing but the requests it generates.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// lds is a d-dimensional additive-recurrence (Kronecker) sequence with a
// seeded random shift: point i is frac(shift + i·α), α_k = φ^-(k+1) with φ
// the positive root of x^(d+1) = x + 1. Every seed gives different
// requests, but any contiguous block of points — a whole run or one of its
// rounds — covers the parameter space almost uniformly, so the amount of
// work in a run barely depends on the seed. With independent draws the mean
// device time of 12 000 uniform GEMM shapes moves ±1.5 % between seeds,
// which would drown a 1 % planner change; with this sequence it moves by a
// tenth of that.
type lds struct {
	alpha, shift []float64
	i            float64
}

func newLDS(d int, r *rng) *lds {
	phi := 2.0
	for it := 0; it < 64; it++ {
		phi = math.Pow(1+phi, 1/float64(d+1))
	}
	q := &lds{alpha: make([]float64, d), shift: make([]float64, d)}
	for k := range q.alpha {
		q.alpha[k] = math.Pow(phi, -float64(k+1))
		q.shift[k] = r.float()
	}
	return q
}

// next writes the next point into u (len d), each coordinate in [0,1).
func (q *lds) next(u []float64) {
	q.i++
	for k := range u {
		v := q.shift[k] + q.i*q.alpha[k]
		u[k] = v - math.Floor(v)
	}
}

// pick maps u in [0,1) onto the integers lo..hi inclusive.
func pick(u float64, lo, hi int) int { return lo + int(u*float64(hi-lo+1)) }

// request is one generated request plus what the checker needs to verify
// its response without consulting the server.
type request struct {
	path   string
	body   []byte
	shape  [3]int // /plan: M, N, K
	seq    int    // /model: sequence length
	tokens int    // /generate: steps · max(1, fanout)
	gen    genParams
}

// genParams are the /generate parameters, kept to rebuild the same request
// for the reference scheduler and the virtual-clock replay.
type genParams struct {
	promptLen, prefixLen, group, steps, fanout int
	promptSeed                                 uint64
}

// workload names one traffic mix: the hardware and server mode it runs on,
// how many requests one nominal second of the timed phase holds (the timed
// count is perSecond × -seconds: fixed count, not fixed duration, so the
// device-clock metrics repeat exactly), and its seeded request generator.
// -quick shrinks the /generate prompts and decodes eightfold.
type workload struct {
	name       string
	hw         func() hw.Hardware
	sched      bool    // serve with -sched (POST /generate)
	perSecond  float64 // timed requests per nominal second on the sizing box
	replayRate float64 // arrivals/s of the virtual-clock Poisson replay (generate only)
	gen        func(r *rng, quick bool) func() request
}

var workloads = []workload{
	{
		// Every shape never seen before, on the paper's second platform:
		// the planner does the work, core only misses, inserts and evicts,
		// graphrt, sched and kvcache are not touched.
		name: "plan-cold",
		hw:   hw.Ascend910, perSecond: 550,
		gen: func(r *rng, quick bool) func() request {
			q, u := newLDS(3, r), make([]float64, 3)
			seen := make(map[[3]int]bool)
			return func() request {
				for {
					q.next(u)
					s := [3]int{pick(u[0], 1, 4096), pick(u[1], 64, 4096), pick(u[2], 64, 4096)}
					if seen[s] {
						continue
					}
					seen[s] = true
					return request{
						path: "/plan", shape: s,
						body: []byte(fmt.Sprintf(`{"m":%d,"n":%d,"k":%d}`, s[0], s[1], s[2])),
					}
				}
			}
		},
	},
	{
		// The paper's dynamic-sequence BERT case in steady state: 80 % of
		// seq from a hot set of 32 lengths, 20 % uniform in 1..512. core
		// hits, graphrt lowers and memoizes stages, and the tail keeps a
		// trickle of cold plans flowing through the plan-ahead pipeline.
		name: "model-dynamic",
		hw:   hw.A100, perSecond: 600,
		gen: func(r *rng, quick bool) func() request {
			// One hot length per 16-wide stratum of 1..512, so the hot
			// set's mean length is the same on every seed.
			var hot [32]int
			for j := range hot {
				hot[j] = 1 + 16*j + int(r.next()%16)
			}
			q, u := newLDS(1, r), make([]float64, 1)
			return func() request {
				q.next(u)
				seq := 0
				if u[0] < 0.8 {
					seq = hot[int(u[0]/0.8*32)]
				} else {
					seq = pick((u[0]-0.8)/0.2, 1, 512)
				}
				return request{
					path: "/model", seq: seq,
					body: []byte(fmt.Sprintf(`{"model":"bert-base","seq":%d}`, seq)),
				}
			}
		},
	},
	{
		// Decode-heavy with 3/4 of each prompt shared within one of 4
		// groups and fanout 2 on every 6th request: prefix reuse, fork and
		// copy-on-write, thousands of memoized graph stages per request.
		name: "generate-shared",
		hw:   hw.A100, sched: true, perSecond: 24, replayRate: 100,
		gen: func(r *rng, quick bool) func() request {
			q, u, div := newLDS(3, r), make([]float64, 3), divisor(quick)
			i := 0
			return func() request {
				q.next(u)
				i++
				p := genParams{
					promptLen: pick(u[0], 64/div, 768/div), group: pick(u[1], 0, 3),
					steps: pick(u[2], 8/div, 32/div), promptSeed: r.next() | 1,
				}
				p.prefixLen = p.promptLen * 3 / 4
				if i%6 == 0 {
					p.fanout = 2
				}
				return p.request()
			}
		},
	},
	{
		// Prefill-heavy with long prompts that share nothing: kvcache
		// allocates and evicts; the bypass for any prefix-cache change.
		name: "generate-unique",
		hw:   hw.A100, sched: true, perSecond: 40, replayRate: 50,
		gen: func(r *rng, quick bool) func() request {
			q, u, div := newLDS(2, r), make([]float64, 2), divisor(quick)
			return func() request {
				q.next(u)
				return genParams{
					promptLen: pick(u[0], 512/div, 2048/div), steps: pick(u[1], 4-div/4, 8/div),
					promptSeed: r.next() | 1,
				}.request()
			}
		},
	},
}

func divisor(quick bool) int {
	if quick {
		return 8
	}
	return 1
}

func (p genParams) request() request {
	body := fmt.Sprintf(`{"prompt_len":%d,"prompt_seed":%d,"steps":%d`, p.promptLen, p.promptSeed, p.steps)
	if p.prefixLen > 0 {
		body += fmt.Sprintf(`,"group":%d,"prefix_len":%d`, p.group, p.prefixLen)
	}
	if p.fanout > 0 {
		body += fmt.Sprintf(`,"fanout":%d`, p.fanout)
	}
	branches := p.fanout
	if branches < 1 {
		branches = 1
	}
	return request{path: "/generate", body: []byte(body + "}"), tokens: p.steps * branches, gen: p}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
