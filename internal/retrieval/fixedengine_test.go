package retrieval

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

func TestFixedTableOne(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFixedEngine(cb)
	best, err := fe.Retrieve(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if best.Impl != 2 {
		t.Errorf("fixed best = %d, want DSP (2)", best.Impl)
	}
	if math.Abs(best.Float()-0.96) > 0.01 {
		t.Errorf("fixed S = %v, want ≈0.96", best.Float())
	}
}

func TestFixedRetrieveNOrder(t *testing.T) {
	cb, _ := casebase.PaperCaseBase()
	fe := NewFixedEngine(cb)
	got, err := fe.RetrieveN(casebase.PaperRequest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Impl != 2 || got[1].Impl != 1 || got[2].Impl != 3 {
		t.Errorf("order = %d,%d,%d, want 2,1,3", got[0].Impl, got[1].Impl, got[2].Impl)
	}
	if _, err := fe.RetrieveN(casebase.PaperRequest(), -1); err == nil {
		t.Error("negative n must error")
	}
}

// TestFixedRejectsInvalidRequest checks the rejection paths: unknown
// type, empty constraint list, non-positive n.
func TestFixedRejectsInvalidRequest(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFixedEngine(cb)
	bad := casebase.NewRequest(99, casebase.Constraint{ID: 1, Value: 16, Weight: 1})
	if _, err := fe.Retrieve(bad); err == nil {
		t.Error("unknown type must error")
	}
	if _, err := fe.ScoreType(bad); err == nil {
		t.Error("ScoreType: unknown type must error")
	}
	if _, err := fe.Retrieve(casebase.Request{Type: 1}); err == nil {
		t.Error("empty constraint list accepted")
	}
	if _, err := fe.RetrieveN(casebase.PaperRequest(), 0); err == nil {
		t.Error("n=0 accepted")
	}
}

// randomCaseBase builds a randomized registry + case base with nTypes
// function types, implsPer implementations each, drawing attrsPer
// attributes from a universe of attrUniverse attribute types. Shared with
// the paper-scale experiments via this test helper pattern (package
// workload provides the production generator).
func randomCaseBase(r *rand.Rand, nTypes, implsPer, attrsPer, attrUniverse int) (*casebase.CaseBase, *attr.Registry) {
	reg := attr.NewRegistry()
	for i := 1; i <= attrUniverse; i++ {
		lo := attr.Value(r.Intn(50))
		hi := lo + attr.Value(1+r.Intn(200))
		reg.MustDefine(attr.Def{ID: attr.ID(i), Name: "a", Lo: lo, Hi: hi})
	}
	b := casebase.NewBuilder(reg)
	for ti := 1; ti <= nTypes; ti++ {
		b.AddType(casebase.TypeID(ti), "t")
		for ii := 1; ii <= implsPer; ii++ {
			perm := r.Perm(attrUniverse)[:attrsPer]
			var ps []attr.Pair
			for _, ai := range perm {
				d, _ := reg.Lookup(attr.ID(ai + 1))
				v := d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
				ps = append(ps, attr.Pair{ID: d.ID, Value: v})
			}
			b.AddImpl(casebase.TypeID(ti), casebase.Implementation{
				ID: casebase.ImplID(ii), Attrs: ps,
			})
		}
	}
	cb, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cb, reg
}

func randomRequest(r *rand.Rand, cb *casebase.CaseBase, reg *attr.Registry, nConstraints int) casebase.Request {
	types := cb.Types()
	ft := types[r.Intn(len(types))]
	ids := reg.IDs()
	perm := r.Perm(len(ids))
	var cs []casebase.Constraint
	for _, i := range perm {
		if len(cs) == nConstraints {
			break
		}
		d, _ := reg.Lookup(ids[i])
		v := d.Lo + attr.Value(r.Intn(int(d.Hi-d.Lo)+1))
		cs = append(cs, casebase.Constraint{ID: d.ID, Value: v})
	}
	return casebase.NewRequest(ft.ID, cs...).EqualWeights()
}

// TestFixedMatchesFloat is the paper's §4.2 accuracy claim as a property:
// across randomized case bases, the 16-bit fixed-point engine and the
// float64 engine must pick the same best implementation whenever the
// float ranking is unambiguous beyond fixed-point resolution.
func TestFixedMatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	agree, ambiguous := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		cb, reg := randomCaseBase(r, 3, 8, 5, 10)
		fe := NewFixedEngine(cb)
		e := NewEngine(cb, Options{})
		req := randomRequest(r, cb, reg, 4)

		all, err := e.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		fbest, err := fe.Retrieve(req)
		if err != nil {
			t.Fatal(err)
		}
		// Margin below which fixed point may legitimately disagree:
		// accumulated rounding is bounded by a few Q15 LSBs per
		// attribute.
		const margin = 6.0 / 32768
		if len(all) > 1 && all[0].Similarity-all[1].Similarity < margin {
			ambiguous++
			continue
		}
		if fbest.Impl == all[0].Impl {
			agree++
		} else {
			t.Errorf("trial %d: float best %d (S=%.6f), fixed best %d (S=%.6f)",
				trial, all[0].Impl, all[0].Similarity, fbest.Impl, fbest.Float())
		}
	}
	if agree == 0 {
		t.Fatal("no unambiguous trials — generator is broken")
	}
	t.Logf("agree=%d ambiguous=%d of %d", agree, ambiguous, trials)
}

// TestFixedSimilarityError bounds the absolute similarity error of the
// fixed engine against float64.
func TestFixedSimilarityError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		cb, reg := randomCaseBase(r, 1, 5, 4, 8)
		fe := NewFixedEngine(cb)
		e := NewEngine(cb, Options{})
		req := randomRequest(r, cb, reg, 3)
		all, _ := e.RetrieveAll(req)
		column, err := fe.ScoreType(req)
		if err != nil {
			t.Fatal(err)
		}
		ft, _ := cb.Type(req.Type)
		for _, res := range all {
			for i := range ft.Impls {
				if ft.Impls[i].ID != res.Impl {
					continue
				}
				if d := math.Abs(column[i].Float() - res.Similarity); d > worst {
					worst = d
				}
			}
		}
	}
	// Reciprocal rounding error scales with d/dmax ratios but stays
	// well below a percent for realistic attribute ranges.
	if worst > 0.01 {
		t.Errorf("worst fixed-vs-float similarity error = %v, want < 0.01", worst)
	}
	t.Logf("worst error = %.6f", worst)
}

// TestFixedEngineConcurrent pins the concurrency contract: one
// FixedEngine shared by several goroutines returns what it returns
// sequentially (run under -race).
func TestFixedEngineConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cb, reg := randomCaseBase(r, 3, 8, 5, 10)
	fe := NewFixedEngine(cb)
	reqs := make([]casebase.Request, 32)
	want := make([][]FixedResult, len(reqs))
	for i := range reqs {
		reqs[i] = randomRequest(r, cb, reg, 1+r.Intn(5))
		var err error
		if want[i], err = fe.RetrieveN(reqs[i], 3); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				best, err := fe.Retrieve(req)
				if err != nil || best != want[i][0] {
					t.Errorf("request %d: Retrieve %+v, %v; want %+v", i, best, err, want[i][0])
				}
				got, err := fe.RetrieveN(req, 3)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("request %d: RetrieveN %+v, %v; want %+v", i, got, err, want[i])
				}
				if _, err := fe.ScoreType(req); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
