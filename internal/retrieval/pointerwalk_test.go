package retrieval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
)

// pointerWalk is the reference oracle for FixedEngine: the original Q15
// scorer, which walks each implementation's attribute list through the
// case base (binary search per constraint), looks the supplemental
// reciprocal up in a map per probe, converts the weights once per
// implementation, and ranks n-best by sorting the whole scored field.
// It shares no code with the compacted kernel beyond package fixed's
// arithmetic, so the two agreeing bit for bit checks the layout, not
// the arithmetic.
type pointerWalk struct {
	cb *casebase.CaseBase
	// recips caches the supplemental-list constants: (1+dmax)^-1 per
	// attribute ID, generated once at construction — the design-time
	// table of fig. 4 (right).
	recips map[uint16]fixed.UQ16
}

// newPointerWalk builds the oracle and its reciprocal table from the
// case base's attribute registry.
func newPointerWalk(cb *casebase.CaseBase) *pointerWalk {
	fe := &pointerWalk{cb: cb, recips: make(map[uint16]fixed.UQ16)}
	for _, id := range cb.Registry().IDs() {
		dmax, _ := cb.Registry().DMax(id)
		fe.recips[uint16(id)] = fixed.Recip(dmax)
	}
	return fe
}

// weightsQ15 converts the request weights to Q15 via fixed.WeightsQ15,
// the same conversion the memory-image encoder applies.
func weightsQ15(req casebase.Request) []fixed.Q15 {
	ws := make([]float64, len(req.Constraints))
	for i, c := range req.Constraints {
		ws[i] = c.Weight
	}
	return fixed.WeightsQ15(ws)
}

// Score computes the Q15 global similarity of one implementation exactly
// as the datapath does: for each requested attribute, look up the value
// (missing ⇒ s_i = 0), s_i = 1 - d·recip, acc += w_i·s_i with
// saturation.
func (fe *pointerWalk) Score(im *casebase.Implementation, req casebase.Request) fixed.Q15 {
	w := weightsQ15(req)
	var acc fixed.Q15
	for i, c := range req.Constraints {
		v, found := im.Attr(c.ID)
		if !found {
			continue // s_i = 0 contributes nothing
		}
		d := fixed.Dist(uint16(c.Value), uint16(v))
		recip := fe.recips[uint16(c.ID)]
		s := fixed.LocalSim(d, recip)
		acc = fixed.WeightedAcc(acc, w[i], s)
	}
	return acc
}

// Retrieve runs the fig. 6 most-similar scan: storage order, running
// maximum, strict > so the first of equals wins.
func (fe *pointerWalk) Retrieve(req casebase.Request) (FixedResult, error) {
	if err := req.Validate(fe.cb); err != nil {
		return FixedResult{}, err
	}
	ft, _ := fe.cb.Type(req.Type)
	best := FixedResult{Type: req.Type}
	haveBest := false
	for i := range ft.Impls {
		s := fe.Score(&ft.Impls[i], req)
		if !haveBest || s > best.Similarity {
			best.Impl = ft.Impls[i].ID
			best.Similarity = s
			haveBest = true
		}
	}
	if !haveBest {
		return FixedResult{}, fmt.Errorf("retrieval: type %d has no implementations", req.Type)
	}
	return best, nil
}

// RetrieveN returns the n most similar implementations, best first
// (ties by ascending implementation ID), by sorting the scored
// sub-list.
func (fe *pointerWalk) RetrieveN(req casebase.Request, n int) ([]FixedResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("retrieval: n must be positive, got %d", n)
	}
	if err := req.Validate(fe.cb); err != nil {
		return nil, err
	}
	ft, _ := fe.cb.Type(req.Type)
	out := make([]FixedResult, 0, len(ft.Impls))
	for i := range ft.Impls {
		out = append(out, FixedResult{
			Type: req.Type, Impl: ft.Impls[i].ID,
			Similarity: fe.Score(&ft.Impls[i], req),
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

// unsortRequest reverses the constraint order, bypassing the sorting
// NewRequest applies, to exercise the kernel's non-merge fallback.
// Validate still accepts such requests, so kernel and oracle must agree
// on them too.
func unsortRequest(req casebase.Request) casebase.Request {
	out := casebase.Request{Type: req.Type}
	for i := len(req.Constraints) - 1; i >= 0; i-- {
		out.Constraints = append(out.Constraints, req.Constraints[i])
	}
	return out
}

// TestCompactMatchesFixedBitIdentical is the kernel's correctness gate:
// across randomized case bases and requests — sorted and unsorted
// constraint orders alike — the compacted FixedEngine must return
// exactly the pointer-walk oracle's result, bit for bit: same
// implementation, same Q15 similarity, same n-best ranking.
func TestCompactMatchesFixedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		cb, reg := randomCaseBase(r, 3, 8, 5, 10)
		pw := newPointerWalk(cb)
		fe := NewFixedEngine(cb)
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		for _, rq := range []casebase.Request{req, unsortRequest(req)} {
			want, err := pw.Retrieve(rq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fe.Retrieve(rq)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d: pointer walk %+v, compact %+v", trial, want, got)
			}
			wantN, err := pw.RetrieveN(rq, 5)
			if err != nil {
				t.Fatal(err)
			}
			gotN, err := fe.RetrieveN(rq, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotN, wantN) {
				t.Fatalf("trial %d: n-best diverges:\npointer walk %+v\ncompact      %+v", trial, wantN, gotN)
			}
		}
	}
}

// TestCompactScoreTypeMatchesFixedScores pins the per-implementation
// Q15 column, not just the winner: every score in storage order must be
// bit-identical to the oracle's Score on the corresponding variant.
func TestCompactScoreTypeMatchesFixedScores(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		cb, reg := randomCaseBase(r, 2, 6, 4, 8)
		pw := newPointerWalk(cb)
		fe := NewFixedEngine(cb)
		req := randomRequest(r, cb, reg, 3)
		for _, rq := range []casebase.Request{req, unsortRequest(req)} {
			qs, err := fe.ScoreType(rq)
			if err != nil {
				t.Fatal(err)
			}
			ft, _ := cb.Type(rq.Type)
			if len(qs) != len(ft.Impls) {
				t.Fatalf("scored %d impls, type has %d", len(qs), len(ft.Impls))
			}
			for i := range ft.Impls {
				if want := pw.Score(&ft.Impls[i], rq); qs[i] != want {
					t.Fatalf("trial %d impl %d: compact %d, pointer walk %d", trial, ft.Impls[i].ID, qs[i], want)
				}
			}
		}
	}
}
