package graphrt

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"

	"mikpoly/internal/core"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
)

// digest is a 128-bit content digest, comparable so it can sit in a map key.
type digest struct{ lo, hi uint64 }

// stageKey identifies one stage execution for the stage memo: the ordered
// (program content, instance count) list of its ops folded into ops, the
// fingerprint of the health view it ran under, and the fault-injection salt
// (recoverySalt of the ladder attempt, zero for a stage's first run).
// Building it formats nothing.
type stageKey struct {
	ops  digest
	fp   string
	salt uint64
}

// add folds one op into the key. Each lane is re-mixed after absorbing the
// op, so the fold is sensitive to op order and to which op a count belongs to.
func (k *stageKey) add(d digest, count int) {
	k.ops.lo = mix64(k.ops.lo ^ d.lo ^ uint64(count))
	k.ops.hi = mix64(k.ops.hi + d.hi + uint64(count)<<32)
}

// word absorbs one 64-bit word into both lanes. A graph digest absorbs about
// eight words per op, so a lane's step is one multiplication, not a full mix64:
// lo is multiply-xorshift (a bijection of the word for a given state), hi
// rotate-add-multiply, and digestGraph finishes both with mix64. The lanes
// combine the word differently, so two inputs must collide in both at once.
func (d *digest) word(x uint64) {
	lo := (d.lo ^ x) * 0x9e3779b97f4a7c15
	d.lo = lo ^ lo>>32
	d.hi = (bits.RotateLeft64(d.hi, 27) + x) * 0xbf58476d1ce4e5b9
}

// digestGraph is the content identity of a graph for the compiled-execution
// table: every field Execute, planMemory and Graph.Validate read, absorbed as
// a uniquely decodable word sequence (Kind says whether the conv geometry
// follows, edge lists carry their length, and nil Inputs — the
// chain default — is told apart from an explicit empty list), so
// two graphs share a digest only if they are equal in all of them or the hash
// itself collides. Graph and op names are left out: they label reports and
// errors and change nothing that executes.
func digestGraph(g nn.Graph) digest {
	d := digest{lo: uint64(len(g.Ops))}
	for i := range g.Ops {
		op := &g.Ops[i]
		d.word(uint64(op.Kind))
		d.word(uint64(op.Gemm.M))
		d.word(uint64(op.Gemm.N))
		d.word(uint64(op.Gemm.K))
		if op.Kind == nn.OpConv {
			c := &op.Conv
			for _, v := range [...]int{c.Batch, c.InC, c.InH, c.InW, c.OutC, c.KH, c.KW, c.Stride, c.Pad} {
				d.word(uint64(v))
			}
		}
		d.word(uint64(op.Count))
		d.word(math.Float64bits(op.OtherBytes))
		if op.Inputs == nil {
			d.word(^uint64(0))
			continue
		}
		d.word(uint64(len(op.Inputs)))
		for _, in := range op.Inputs {
			d.word(uint64(in))
		}
	}
	return digest{lo: mix64(d.lo), hi: mix64(d.hi)}
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// digestProgram hashes everything Program.Tasks reads — and the shape and
// pattern that name the program — so two programs share a digest only when
// they lower to the same tasks on every hardware view. In particular kernels
// that differ only in K depth, pipeline stages, vector width or premium
// produce equal tile and task counts but different digests.
func digestProgram(p *poly.Program) digest {
	b := make([]byte, 0, 8*(5+12*len(p.Regions)))
	put := func(vs ...int) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	put(p.Shape.M, p.Shape.N, p.Shape.K, int(p.Pattern), len(p.Regions))
	for _, r := range p.Regions {
		put(r.M0, r.N0, r.M, r.N, r.KOff, r.K,
			r.Kern.UM, r.Kern.UN, r.Kern.UK, r.Kern.Cfg.Stages, r.Kern.Cfg.Vec)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Kern.Premium))
	}
	sum := sha256.Sum256(b)
	return digest{
		lo: binary.LittleEndian.Uint64(sum[:8]),
		hi: binary.LittleEndian.Uint64(sum[8:16]),
	}
}

// digestCap bounds the per-program digest table at the plan cache's default
// capacity: the programs a replay asks about are the ones the plan cache
// holds. An LRU stays full where a table dropped wholesale averaged half its
// cap, and every entry pins its program, so a larger cap keeps thousands of
// evicted programs alive on a shape-churning workload.
const digestCap = core.DefaultCacheCapacity

// progDigest returns p's content digest, computing it at most once while p
// stays in the table. The table is keyed by the program's address and thereby
// keeps the program alive, so an address can never be recycled for another
// program under a live entry. The digest lives here rather than in
// poly.Program because programs are copied by value and planned on paths
// (/plan) that never reach the graph runtime.
func (r *Runtime) progDigest(p *poly.Program) digest {
	r.mu.Lock()
	d, ok := r.digests.Get(p)
	r.mu.Unlock()
	if ok {
		return d
	}
	d = digestProgram(p)
	r.mu.Lock()
	r.digests.Put(p, d)
	r.mu.Unlock()
	return d
}
