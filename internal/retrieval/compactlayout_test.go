package retrieval

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/workload"
)

// TestEngineCompactLayoutBitIdentical gates the Engine integration: with
// CompactLayout set (and default measures), every similarity the float
// facade reports must be the exact Float() image of the FixedEngine Q15
// score, and the ranking must match the plain float engine's whenever
// similarities stay distinguishable at Q15 resolution.
func TestEngineCompactLayoutBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		cb, reg := randomCaseBase(r, 3, 8, 5, 10)
		ec := NewEngine(cb, Options{CompactLayout: true})
		req := randomRequest(r, cb, reg, 4)
		all, err := ec.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		column, err := NewFixedEngine(cb).ScoreType(req)
		if err != nil {
			t.Fatal(err)
		}
		ft, _ := cb.Type(req.Type)
		for _, res := range all {
			var want float64
			found := false
			for i := range ft.Impls {
				if ft.Impls[i].ID == res.Impl {
					want = column[i].Float()
					found = true
				}
			}
			if !found {
				t.Fatalf("result names unknown impl %d", res.Impl)
			}
			if res.Similarity != want {
				t.Fatalf("trial %d impl %d: facade %v, datapath %v", trial, res.Impl, res.Similarity, want)
			}
			if res.Locals != nil {
				t.Fatal("compact path must not fabricate locals")
			}
		}
	}
}

// TestEngineCompactLayoutFallsBack pins the eligibility rule: custom
// measures or KeepLocals keep the floating-point path (locals present,
// full-precision similarities).
func TestEngineCompactLayoutFallsBack(t *testing.T) {
	cb, err := casebase.PaperCaseBase()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cb, Options{CompactLayout: true, KeepLocals: true})
	if e.compact != nil {
		t.Error("KeepLocals must disable the compact path")
	}
	all, err := e.RetrieveAll(casebase.PaperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Locals == nil {
		t.Error("fallback path lost the locals breakdown")
	}
}

// TestEngineCompactLayoutShardInvariant asserts the bit-identity
// property the serve layer relies on: the compact engine is
// deterministic across independently constructed engines over the same
// case base, so any shard fan-out serves identical similarities.
func TestEngineCompactLayoutShardInvariant(t *testing.T) {
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	e1 := NewEngine(cb, Options{CompactLayout: true})
	e2 := NewEngine(cb, Options{CompactLayout: true})
	for trial := 0; trial < 50; trial++ {
		req := randomRequest(r, cb, reg, 4)
		a, err := e1.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e2.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: engines over the same case base diverge", trial)
		}
	}
}

// TestOversizeCaseBase covers a case base past the compacted image's
// 16-bit word-address space: FixedEngine refuses every call with the
// compaction error, and an Engine asked for the compacted layout falls
// back to the floating-point path, serving exactly what the default
// Engine serves.
func TestOversizeCaseBase(t *testing.T) {
	cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: 20, ImplsPerType: 200, AttrsPerImpl: 8, AttrUniverse: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, want := memlist.CompactFromCaseBase(cb)
	if want == nil {
		t.Fatal("case base fits the compacted image; the test needs one past 65,536 words")
	}
	r := rand.New(rand.NewSource(19))
	req := randomRequest(r, cb, reg, 4)
	fe := NewFixedEngine(cb)
	_, errR := fe.Retrieve(req)
	_, errN := fe.RetrieveN(req, 3)
	_, errS := fe.ScoreType(req)
	for i, err := range []error{errR, errN, errS} {
		if err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != want.Error() {
			t.Errorf("call %d (Retrieve, RetrieveN, ScoreType): error = %v, want the wrapped compaction error %q", i, err, want)
		}
	}

	ec := NewEngine(cb, Options{CompactLayout: true})
	if ec.compact != nil {
		t.Fatal("oversize case base must keep the floating-point path")
	}
	ef := NewEngine(cb, Options{})
	for trial := 0; trial < 20; trial++ {
		req := randomRequest(r, cb, reg, 1+r.Intn(5))
		got, gotErr := ec.Retrieve(req)
		want, wantErr := ef.Retrieve(req)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("trial %d Retrieve: compact-layout engine %+v/%v, default %+v/%v", trial, got, gotErr, want, wantErr)
		}
		gotN, gotErr := ec.RetrieveN(req, 3)
		wantN, wantErr := ef.RetrieveN(req, 3)
		if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("trial %d RetrieveN: compact-layout engine %+v/%v, default %+v/%v", trial, gotN, gotErr, wantN, wantErr)
		}
		gotAll, err := ec.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		wantAll, err := ef.RetrieveAll(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotAll, wantAll) {
			t.Fatalf("trial %d RetrieveAll: compact-layout engine and default engine diverge", trial)
		}
	}
	if ec.Stats() != ef.Stats() {
		t.Errorf("stats: compact-layout engine %+v, default %+v", ec.Stats(), ef.Stats())
	}
}
