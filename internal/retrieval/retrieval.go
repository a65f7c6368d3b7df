// Package retrieval implements the paper's most-similar retrieval step
// (fig. 6): given a function request with QoS constraints, score every
// implementation variant of the requested function type against the
// request and return the best match(es).
//
// Engine is the double-precision reference — the role Matlab plays in
// §4.2 — supporting pluggable similarity measures. FixedEngine
// (fixedengine.go) is the one Q15 kernel: it reproduces the 16-bit
// datapath arithmetic bit-for-bit over the block-compacted attribute
// layout of §5, so that the paper's claim "we get the same retrieval
// results in high precision floating point ... as we get from VHDL
// simulation" can be checked as a property over randomized case bases.
// Engine's CompactLayout option serves its scores from that kernel. The
// n-best extension sketched in §5 ("our next step will be an extension
// for getting n most similar solutions") is RetrieveN.
package retrieval

import (
	"fmt"
	"sort"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
	"qosalloc/internal/similarity"
)

// LocalScore records one attribute comparison, a row of Table 1.
type LocalScore struct {
	ID     uint16  // attribute type ID
	Req    uint16  // requested value
	Impl   uint16  // implementation value (0 when missing)
	Found  bool    // implementation describes the attribute
	DMax   uint16  // design-global maximum distance
	Sim    float64 // local similarity s_i
	Weight float64 // weight w_i
}

// Result is one scored implementation variant.
type Result struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Target     casebase.Target
	Name       string
	Similarity float64      // global similarity S in [0, 1]
	Locals     []LocalScore // per-attribute breakdown, request order
}

// Options configure an Engine.
type Options struct {
	// Local is the per-attribute measure; nil means eq. (1) Linear.
	Local similarity.Local
	// Amalgamation combines local similarities; nil means eq. (2)
	// WeightedSum.
	Amalgamation similarity.Amalgamation
	// Threshold rejects results with S below it ("it's conceivable to
	// reject all results below a given threshold similarity", §3).
	// Zero admits everything.
	Threshold float64
	// KeepLocals retains the per-attribute breakdown in results.
	// Disable for large sweeps to avoid the allocations.
	KeepLocals bool
	// CompactLayout serves retrieval from the block-compacted memory
	// layout (§5): scores come from the branch-free Q15 kernel over
	// structure-of-arrays attribute blocks, converted to float64 at
	// datapath precision. It applies only with the paper's default
	// measures — a custom Local or Amalgamation, or KeepLocals, keeps
	// the floating-point path, since the compacted kernel computes
	// neither. Thresholding and n-best selection behave identically on
	// the quantized similarities.
	CompactLayout bool
}

// Engine performs floating-point retrieval over a case base. It reuses
// scratch buffers across calls and is not safe for concurrent use: give
// each goroutine its own Engine (the serve shards each hold one).
type Engine struct {
	cb    *casebase.CaseBase
	opt   Options
	stats Stats
	met   *Metrics
	// compact is the block-compacted Q15 kernel, non-nil only when
	// Options.CompactLayout applies (default measures, no locals).
	compact *FixedEngine

	// Scratch every walk reuses, one slot per request constraint: the
	// hoisted weights and DMax values, and the local similarities of
	// the implementation being scored.
	weights []float64
	dmax    []uint16
	sims    []float64
}

// Stats counts engine activity.
type Stats struct {
	Retrievals     int // retrieval runs
	ImplsScored    int // implementation variants scored
	AttrsCompared  int // attribute comparisons performed
	BelowThreshold int // variants rejected by the threshold
}

// NewEngine returns an Engine over cb. Nil option fields get the paper's
// defaults (Linear local measure, WeightedSum amalgamation).
func NewEngine(cb *casebase.CaseBase, opt Options) *Engine {
	// Compact-layout eligibility is decided before the nil fields are
	// defaulted: a caller-supplied measure (or a locals request) means
	// the floating-point path must run, because the compacted kernel
	// hard-wires the paper's Linear/WeightedSum datapath arithmetic.
	var compact *FixedEngine
	if opt.CompactLayout && opt.Local == nil && opt.Amalgamation == nil && !opt.KeepLocals {
		// Compaction fails only past the 16-bit word-address space of
		// the compacted image; such a case base cannot exist in
		// hardware, so the software engine falls back to the
		// floating-point path rather than refusing service.
		if fe := NewFixedEngine(cb); fe.err == nil {
			compact = fe
		}
	}
	if opt.Local == nil {
		opt.Local = similarity.Linear{}
	}
	if opt.Amalgamation == nil {
		opt.Amalgamation = similarity.WeightedSum{}
	}
	return &Engine{cb: cb, opt: opt, met: NewMetrics(nil), compact: compact}
}

// Instrument points the engine's observability at the given bundle
// (typically shared with the service shards or the allocation manager's
// registry).
func (e *Engine) Instrument(m *Metrics) {
	if m != nil {
		e.met = m
	}
}

// CaseBase returns the engine's case base.
func (e *Engine) CaseBase() *casebase.CaseBase { return e.cb }

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// ErrNoMatch is returned when no implementation survives the threshold.
type ErrNoMatch struct {
	Type      casebase.TypeID
	Threshold float64
	Best      float64 // best similarity seen (informative for relaxation)
}

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("retrieval: no implementation of type %d reaches threshold %.3f (best %.3f)",
		e.Type, e.Threshold, e.Best)
}

// walk is one pass over the requested type's implementation sub-list,
// set up by begin: the request's constraints, with their weights and
// DMax hoisted into the engine's scratch, and, on the compacted
// datapath, the Q15 score column in storage order.
type walk struct {
	e      *Engine
	typ    casebase.TypeID
	cs     []casebase.Constraint
	impls  []casebase.Implementation
	column []fixed.Q15
	start  int64
}

// begin validates req, counts one retrieval and prepares its walk. The
// per-constraint weights and DMax are looked up once here, not once per
// implementation.
func (e *Engine) begin(req casebase.Request) (walk, error) {
	// On the compacted datapath the kernel's query preparation
	// validates the request.
	var q fixedQuery
	var err error
	if e.compact != nil {
		q, err = e.compact.prepare(req)
	} else {
		err = req.Validate(e.cb)
	}
	if err != nil {
		return walk{}, err
	}
	w := walk{e: e, typ: req.Type, cs: req.Constraints, start: e.met.start()}
	ft, _ := e.cb.Type(req.Type)
	w.impls = ft.Impls
	e.stats.Retrievals++
	e.met.Retrievals.Inc()
	e.met.ImplsPerRetrieval.Observe(int64(len(ft.Impls)))
	if e.compact != nil {
		// Compacted datapath: one kernel pass yields the Q15 column in
		// storage order; implementation metadata is zipped back in from
		// the case base, which shares that order.
		w.column = e.compact.column(&q)
		return w, nil
	}
	reg := e.cb.Registry()
	e.weights, e.dmax = e.weights[:0], e.dmax[:0]
	for _, c := range req.Constraints {
		// Validate rejected unknown attributes, so the lookup cannot
		// fail; a failure would score the attribute with DMax 0.
		dmax, _ := reg.DMax(c.ID)
		e.weights = append(e.weights, c.Weight)
		e.dmax = append(e.dmax, dmax)
	}
	if cap(e.sims) < len(req.Constraints) {
		e.sims = make([]float64, len(req.Constraints))
	}
	e.sims = e.sims[:len(req.Constraints)]
	return w, nil
}

// score returns the global similarity of the i-th implementation,
// filling locals (when non-nil) with its per-attribute breakdown.
// Missing implementation attributes contribute s_i = 0 — "a missing
// attribute can be seen as unsatisfiable requirement" (§3).
func (w *walk) score(i int, locals []LocalScore) float64 {
	if w.column != nil {
		return w.column[i].Float()
	}
	e, im := w.e, &w.impls[i]
	for k, c := range w.cs {
		v, found := im.Attr(c.ID)
		var s float64
		if found {
			s = e.opt.Local.Similarity(c.Value, v, e.dmax[k])
		}
		e.sims[k] = s
		if locals != nil {
			locals[k] = LocalScore{
				ID: uint16(c.ID), Req: uint16(c.Value), Impl: uint16(v),
				Found: found, DMax: e.dmax[k], Sim: s, Weight: c.Weight,
			}
		}
	}
	return e.opt.Amalgamation.Combine(e.sims, e.weights)
}

// result is the i-th implementation scored s.
func (w *walk) result(i int, s float64, locals []LocalScore) Result {
	im := &w.impls[i]
	return Result{
		Type: w.typ, Impl: im.ID, Target: im.Target, Name: im.Name,
		Similarity: s, Locals: locals,
	}
}

// newLocals returns a breakdown buffer for one implementation, or nil
// when the engine does not keep locals.
func (w *walk) newLocals() []LocalScore {
	if !w.e.opt.KeepLocals {
		return nil
	}
	return make([]LocalScore, len(w.cs))
}

// finish counts the walk's scored implementations and attribute
// comparisons — one counter update per walk, not one per attribute —
// and records its latency.
func (w *walk) finish() {
	e, n := w.e, len(w.impls)
	e.stats.ImplsScored += n
	e.stats.AttrsCompared += n * len(w.cs)
	e.met.ImplsScored.Add(int64(n))
	e.met.AttrsCompared.Add(int64(n * len(w.cs)))
	e.met.observeLatency(w.start)
}

// RetrieveAll scores every implementation of the requested type and
// returns the results sorted by descending similarity (ties broken by
// ascending implementation ID, the order the hardware scan would keep).
// The threshold is NOT applied; callers see the full field.
func (e *Engine) RetrieveAll(req casebase.Request) ([]Result, error) {
	w, err := e.begin(req)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(w.impls))
	for i := range w.impls {
		locals := w.newLocals()
		out = append(out, w.result(i, w.score(i, locals), locals))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Impl < out[j].Impl
	})
	w.finish()
	return out, nil
}

// Retrieve returns the most similar implementation, applying the
// threshold. This is the fig. 6 algorithm: one pass over the
// implementation sub-list keeping the running best. It picks what
// RetrieveAll ranks first.
func (e *Engine) Retrieve(req casebase.Request) (Result, error) {
	w, err := e.begin(req)
	if err != nil {
		return Result{}, err
	}
	best, bestS, below := -1, 0.0, 0
	var locals, bestLocals []LocalScore
	for i := range w.impls {
		if locals == nil {
			locals = w.newLocals()
		}
		s := w.score(i, locals)
		if s < e.opt.Threshold {
			below++
		}
		if best < 0 || s > bestS || (s == bestS && w.impls[i].ID < w.impls[best].ID) {
			best, bestS = i, s
			// The old best's breakdown buffer is free for the next
			// implementation.
			bestLocals, locals = locals, bestLocals
		}
	}
	w.finish()
	e.stats.BelowThreshold += below
	e.met.BelowThreshold.Add(int64(below))
	if best < 0 || bestS < e.opt.Threshold {
		e.met.NoMatch.Inc()
		return Result{}, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: bestS}
	}
	return w.result(best, bestS, bestLocals), nil
}

// RetrieveN returns the up-to-n most similar implementations that meet
// the threshold, best first — the §5 n-best extension. It keeps a
// bounded insertion list during the one pass, so the result equals the
// threshold-filtered prefix of RetrieveAll. It returns ErrNoMatch when
// none qualifies, so the caller can relax constraints.
func (e *Engine) RetrieveN(req casebase.Request, n int) ([]Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	w, err := e.begin(req)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, min(n, len(w.impls)))
	bestS, below := 0.0, 0
	var locals []LocalScore
	for i := range w.impls {
		if locals == nil {
			locals = w.newLocals()
		}
		s := w.score(i, locals)
		bestS = max(bestS, s)
		if s < e.opt.Threshold {
			below++
			continue
		}
		// Insertion point: after every kept result that scores higher,
		// or equal with a lower ID — RetrieveAll's order.
		k, id := len(out), w.impls[i].ID
		for k > 0 && (s > out[k-1].Similarity || (s == out[k-1].Similarity && id < out[k-1].Impl)) {
			k--
		}
		if k == n {
			continue
		}
		if len(out) < n {
			out = append(out, Result{})
		}
		copy(out[k+1:], out[k:len(out)-1])
		out[k] = w.result(i, s, locals)
		locals = nil
	}
	w.finish()
	e.stats.BelowThreshold += below
	e.met.BelowThreshold.Add(int64(below))
	if len(out) == 0 {
		e.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: bestS}
	}
	return out, nil
}
