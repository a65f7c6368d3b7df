package retrieval

import (
	"fmt"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/memlist"
)

// FixedResult is a scored implementation in datapath precision.
type FixedResult struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Similarity fixed.Q15 // global similarity, Q1.15
}

// Float converts the fixed result to a Result-compatible similarity.
func (f FixedResult) Float() float64 { return f.Similarity.Float() }

// FixedEngine scores implementations with exactly the arithmetic of the
// fig. 7 datapath: 16-bit attribute values, Manhattan distance through
// the ABS block, multiplication by the pre-computed UQ16 reciprocal of
// (1+dmax) instead of division, Q15 weighted accumulation with
// saturation. It is the software twin of the hardware retrieval unit and
// must agree with it cycle-result-for-cycle-result (package hwsim tests
// enforce this).
//
// Operands come from the block-compacted memory layout
// (memlist.CompactCaseBase), the §5 "compacted representation of the
// attribute blocks" projected to roughly double retrieval speed:
//
//   - attribute IDs and values stream from two parallel arrays, so the
//     per-implementation scan is a resumable two-pointer merge with no
//     pointer dereference and no interleaved non-key words;
//   - supplemental reciprocals are resolved once at construction into a
//     per-pair array, eliminating the per-probe supplemental lookup;
//   - request weights convert to Q15 once per retrieval, not once per
//     implementation.
//
// The inner accumulation is branch-free in the datapath sense: a match
// mask selects between the weighted term and zero via array indexing,
// mirroring the hardware's multiplexed accumulator enable rather than a
// skipped instruction.
//
// A case base past the 16-bit word-address space of the compacted image
// is not scored: every call returns the compaction error, wrapped. The
// fig. 4/5 images behind the hardware and MicroBlaze runners refuse such
// a case base too, so no datapath could serve it.
//
// A FixedEngine is immutable after construction and safe for concurrent
// use.
type FixedEngine struct {
	cb *casebase.CaseBase // request validation + impl metadata
	cc *memlist.CompactCaseBase
	// pairRecip[k] is the UQ16 reciprocal for attribute AttrIDs[k],
	// index-aligned with the packed attribute blocks. Attributes
	// absent from the supplemental table get 0.
	pairRecip []fixed.UQ16
	// typeAt maps a function type ID to its index in TypeIDs/ImplOff.
	typeAt map[uint16]int
	// err is the compaction failure every call reports, nil when the
	// case base fits the compacted image.
	err error
}

// NewFixedEngine compacts the case base and builds the kernel's
// constant tables from its attribute registry.
func NewFixedEngine(cb *casebase.CaseBase) *FixedEngine {
	cc, err := memlist.CompactFromCaseBase(cb)
	if err != nil {
		return &FixedEngine{cb: cb, err: fmt.Errorf("retrieval: fixed engine: %w", err)}
	}
	fe := &FixedEngine{
		cb:        cb,
		cc:        cc,
		pairRecip: make([]fixed.UQ16, len(cc.AttrIDs)),
		typeAt:    make(map[uint16]int, len(cc.TypeIDs)),
	}
	recipOf := make(map[uint16]fixed.UQ16, len(cc.SuppIDs))
	for i, id := range cc.SuppIDs {
		recipOf[id] = fixed.UQ16(cc.SuppRecip[i])
	}
	for k, id := range cc.AttrIDs {
		fe.pairRecip[k] = recipOf[id]
	}
	for t, id := range cc.TypeIDs {
		fe.typeAt[id] = t
	}
	return fe
}

// fixedQuery is one request prepared for the kernel: the requested
// type's implementations as a packed index range, the constraint IDs
// and values widened to the 16-bit bus domain, and the weights in Q15.
type fixedQuery struct {
	lo, hi int // implementations [lo, hi) in the packed blocks
	ids    []uint16
	vals   []uint16
	ws     []fixed.Q15
	sorted bool // IDs strictly ascending → resumable merge applies
}

// prepare is the step every retrieval shares: validate req, locate its
// type in the compacted layout and build the query. Weights convert to
// Q15 with fixed.WeightsQ15, the memory-image encoder's policy, so the
// engine and the BRAM image cannot disagree.
func (fe *FixedEngine) prepare(req casebase.Request) (fixedQuery, error) {
	if fe.err != nil {
		return fixedQuery{}, fe.err
	}
	if err := req.Validate(fe.cb); err != nil {
		return fixedQuery{}, err
	}
	t, ok := fe.typeAt[uint16(req.Type)]
	if !ok {
		// Validate accepted the type against the case base, so the
		// compacted view must know it too; this is unreachable unless
		// the two drift apart.
		return fixedQuery{}, fmt.Errorf("retrieval: type %d missing from compacted layout", req.Type)
	}
	n := len(req.Constraints)
	q := fixedQuery{
		lo:     int(fe.cc.ImplOff[t]),
		hi:     int(fe.cc.ImplOff[t+1]),
		ids:    make([]uint16, n),
		vals:   make([]uint16, n),
		sorted: true,
	}
	fws := make([]float64, n)
	for i, c := range req.Constraints {
		q.ids[i] = uint16(c.ID)
		q.vals[i] = uint16(c.Value)
		fws[i] = c.Weight
		if i > 0 && q.ids[i] <= q.ids[i-1] {
			q.sorted = false
		}
	}
	q.ws = fixed.WeightsQ15(fws)
	return q, nil
}

// score computes the Q15 global similarity of the i-th packed
// implementation. The constraint loop runs in request order — the
// accumulation order the Q15 rounding remainder makes significant —
// while the attribute cursor advances monotonically through the
// implementation's extent (sorted requests never rescan; unsorted ones
// fall back to a bounded binary search per constraint). A missing
// attribute (s_i = 0) accumulates a masked zero instead of branching
// around the accumulator.
func (fe *FixedEngine) score(i int, q *fixedQuery) fixed.Q15 {
	ids, vals, recips := fe.cc.AttrIDs, fe.cc.AttrVals, fe.pairRecip
	lo, hi := int(fe.cc.AttrOff[i]), int(fe.cc.AttrOff[i+1])
	var acc fixed.Q15
	j := lo
	for k, id := range q.ids {
		if q.sorted {
			for j < hi && ids[j] < id {
				j++
			}
		} else {
			j = lo + sort.Search(hi-lo, func(m int) bool { return ids[lo+m] >= id })
		}
		m := 0
		var s fixed.Q15
		if j < hi && ids[j] == id {
			d := fixed.Dist(q.vals[k], vals[j])
			s = fixed.LocalSim(d, recips[j])
			m = 1
		}
		sel := [2]fixed.Q15{0, fixed.Mul(q.ws[k], s)}
		acc = fixed.AddSat(acc, sel[m])
	}
	return acc
}

// column returns the Q15 similarity of every implementation of the
// query's type, in storage order.
func (fe *FixedEngine) column(q *fixedQuery) []fixed.Q15 {
	out := make([]fixed.Q15, 0, q.hi-q.lo)
	for i := q.lo; i < q.hi; i++ {
		out = append(out, fe.score(i, q))
	}
	return out
}

// ScoreType validates the request and returns the Q15 similarity of
// every implementation of the requested type, in storage order (the
// order of the type's Impls in the case base).
func (fe *FixedEngine) ScoreType(req casebase.Request) ([]fixed.Q15, error) {
	q, err := fe.prepare(req)
	if err != nil {
		return nil, err
	}
	return fe.column(&q), nil
}

// Retrieve runs the fig. 6 most-similar scan in datapath arithmetic:
// iterate the implementation sub-list in storage order, keep (S, ID) of
// the running maximum, strict > so the first of equals wins — matching
// the hardware's "S > SBest?" comparator.
func (fe *FixedEngine) Retrieve(req casebase.Request) (FixedResult, error) {
	q, err := fe.prepare(req)
	if err != nil {
		return FixedResult{}, err
	}
	if q.lo == q.hi {
		return FixedResult{}, fmt.Errorf("retrieval: type %d has no implementations", req.Type)
	}
	best := FixedResult{Type: req.Type}
	for i := q.lo; i < q.hi; i++ {
		if s := fe.score(i, &q); i == q.lo || s > best.Similarity {
			best.Impl = casebase.ImplID(fe.cc.ImplIDs[i])
			best.Similarity = s
		}
	}
	return best, nil
}

// RetrieveN returns the n most similar implementations in datapath
// arithmetic, best first (ties by ascending implementation ID). The
// paper's §5 envisions this as the next hardware extension; in software
// it is a sort over the scored sub-list.
func (fe *FixedEngine) RetrieveN(req casebase.Request, n int) ([]FixedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	q, err := fe.prepare(req)
	if err != nil {
		return nil, err
	}
	out := make([]FixedResult, 0, q.hi-q.lo)
	for i := q.lo; i < q.hi; i++ {
		out = append(out, FixedResult{
			Type: req.Type, Impl: casebase.ImplID(fe.cc.ImplIDs[i]),
			Similarity: fe.score(i, &q),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Impl < out[j].Impl
	})
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}
