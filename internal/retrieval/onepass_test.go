package retrieval

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/similarity"
	"qosalloc/internal/workload"
)

// sortedRetrieve is the sort-based Retrieve: rank the whole field with
// RetrieveAll and take its head. It is the reference the one-pass walk
// must match in result, error and counters.
func sortedRetrieve(e *Engine, req casebase.Request) (Result, error) {
	all, err := e.RetrieveAll(req)
	if err != nil {
		return Result{}, err
	}
	below := 0
	for _, r := range all {
		if r.Similarity < e.opt.Threshold {
			below++
		}
	}
	e.stats.BelowThreshold += below
	e.met.BelowThreshold.Add(int64(below))
	if all[0].Similarity < e.opt.Threshold {
		e.met.NoMatch.Inc()
		return Result{}, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: all[0].Similarity}
	}
	return all[0], nil
}

// sortedRetrieveN is the sort-based RetrieveN: the threshold-filtered
// prefix of RetrieveAll.
func sortedRetrieveN(e *Engine, req casebase.Request, n int) ([]Result, error) {
	all, err := e.RetrieveAll(req)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, n)
	for _, r := range all {
		if r.Similarity < e.opt.Threshold {
			e.stats.BelowThreshold++
			e.met.BelowThreshold.Inc()
			continue
		}
		if len(out) < n {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		e.met.NoMatch.Inc()
		return nil, &ErrNoMatch{Type: req.Type, Threshold: e.opt.Threshold, Best: all[0].Similarity}
	}
	return out, nil
}

// counters flattens an engine's Stats and its Metrics counters.
func counters(e *Engine) []int64 {
	s, m := e.Stats(), e.met
	return []int64{
		int64(s.Retrievals), int64(s.ImplsScored), int64(s.AttrsCompared), int64(s.BelowThreshold),
		m.Retrievals.Load(), m.ImplsScored.Load(), m.AttrsCompared.Load(), m.BelowThreshold.Load(),
		m.NoMatch.Load(), m.ImplsPerRetrieval.Count(), m.ImplsPerRetrieval.Sum(),
	}
}

// TestOnePassMatchesSortedField checks Retrieve against RetrieveAll's
// head and RetrieveN against RetrieveAll's threshold-filtered prefix,
// over randomized case bases whose narrow value ranges force many
// similarity ties, for thresholds, locals, the compacted layout and
// tie-heavy amalgamations. Results, errors, Stats and Metrics counters
// must all agree after every call.
func TestOnePassMatchesSortedField(t *testing.T) {
	calls := 0
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		attrs := 1 + r.Intn(6)
		cb, reg, err := workload.GenCaseBase(workload.CaseBaseSpec{
			Types: 1 + r.Intn(4), ImplsPerType: 1 + r.Intn(12), AttrsPerImpl: attrs,
			AttrUniverse: attrs + r.Intn(4), ValueSpan: 1 + r.Intn(3), Rand: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
			N: 30, ConstraintsPer: 1 + r.Intn(5), RepeatFraction: 0.1, Rand: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Unequal weights make ties rarer but exercise the sum;
		// the invalid request exercises the validation error path.
		for i := 0; i < len(reqs); i += 3 {
			reqs[i] = reweight(reqs[i], r)
		}
		reqs = append(reqs, casebase.Request{Type: 999, Constraints: reqs[0].Constraints})

		thr := r.Float64()
		for _, opt := range []Options{
			{},
			{Threshold: thr},
			{KeepLocals: true, Threshold: thr},
			{CompactLayout: true},
			{CompactLayout: true, Threshold: thr},
			{Amalgamation: similarity.Minimum{}, Threshold: thr},
			{Local: similarity.Exact{}, Amalgamation: similarity.Maximum{}, KeepLocals: true},
		} {
			ref, got := NewEngine(cb, opt), NewEngine(cb, opt)
			for k, req := range reqs {
				where := fmt.Sprintf("seed %d opt %+v request %d", seed, opt, k)
				want, wantErr := sortedRetrieve(ref, req)
				res, err := got.Retrieve(req)
				sameOutcome(t, where+" Retrieve", res, err, want, wantErr)
				n := 1 + r.Intn(14)
				wantN, wantNErr := sortedRetrieveN(ref, req, n)
				resN, errN := got.RetrieveN(req, n)
				sameOutcome(t, fmt.Sprintf("%s RetrieveN(%d)", where, n), resN, errN, wantN, wantNErr)
				if c, w := counters(got), counters(ref); !reflect.DeepEqual(c, w) {
					t.Fatalf("%s: counters %v, want %v", where, c, w)
				}
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("no requests checked")
	}
}

// reweight gives req random weights normalized to sum to 1.
func reweight(req casebase.Request, r *rand.Rand) casebase.Request {
	out := casebase.Request{Type: req.Type, Constraints: append([]casebase.Constraint(nil), req.Constraints...)}
	for i := range out.Constraints {
		out.Constraints[i].Weight = r.Float64()
	}
	return out.NormalizeWeights()
}

// sameOutcome requires bit-identical results (locals included) and
// equal errors.
func sameOutcome[T any](t *testing.T, where string, got T, err error, want T, wantErr error) {
	t.Helper()
	var nm, wnm *ErrNoMatch
	switch {
	case errors.As(wantErr, &wnm):
		if !errors.As(err, &nm) || *nm != *wnm {
			t.Fatalf("%s: error %v, want %v", where, err, wantErr)
		}
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", where, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%s: unexpected error %v", where, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", where, got, want)
	}
}

// tableThreeStream is the paper's Table 3 case base (15 types × 10
// implementations × 10 attributes) with a stream of five-constraint
// requests, the shape the repository benchmark serves.
func tableThreeStream(t *testing.T) (*casebase.CaseBase, []casebase.Request) {
	t.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 256, ConstraintsPer: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cb, reqs
}

// TestWalkAllocs gates the served retrieval path's allocations per
// call at the Table 3 shape: the float walk allocates nothing, RetrieveN
// only its result slice, a signature appended into a reused buffer
// nothing, a token lookup nothing, and a token store only the key of an
// entry it inserts: refreshing a cached signature allocates nothing.
func TestWalkAllocs(t *testing.T) {
	cb, reqs := tableThreeStream(t)
	e := NewEngine(cb, Options{})
	sigs := make([][]byte, len(reqs))
	for i, rq := range reqs {
		sigs[i] = AppendSignature(nil, rq)
	}
	// A cache smaller than the stream: every store past the first lap
	// evicts, so the store gate covers the remove-and-reinsert path.
	tc := NewTokenCache()
	tc.SetMaxTokens(len(sigs) / 2)
	// A cache holding the whole stream: every store refreshes.
	full := NewTokenCache()
	for _, s := range sigs {
		tc.StoreSig(s, Token{Type: 1})
		full.StoreSig(s, Token{Type: 1})
	}
	next := 0
	req := func() casebase.Request {
		next++
		return reqs[next%len(reqs)]
	}
	sig := func() []byte {
		next++
		return sigs[next%len(sigs)]
	}
	var buf []byte
	for _, g := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Engine.Retrieve", 0, func() {
			if _, err := e.Retrieve(req()); err != nil {
				t.Fatal(err)
			}
		}},
		{"Engine.RetrieveN(3)", 1, func() {
			if _, err := e.RetrieveN(req(), 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"TokenCache.StoreSig insert", 1, func() { tc.StoreSig(sig(), Token{Type: 2}) }},
		{"TokenCache.StoreSig refresh", 0, func() { full.StoreSig(sig(), Token{Type: 2}) }},
		{"TokenCache.Store refresh", 0, func() { full.Store(req(), Token{Type: 3}) }},
		{"TokenCache.LookupSig", 0, func() { tc.LookupSig(sig()) }},
		{"TokenCache.Lookup", 0, func() { tc.Lookup(req()) }},
		{"AppendSignature", 0, func() { buf = AppendSignature(buf[:0], req()) }},
		{"Signature", 1, func() { _ = Signature(req()) }},
	} {
		if got := testing.AllocsPerRun(500, g.fn); got > g.max {
			t.Errorf("%s: %v allocs/op, want ≤ %v", g.name, got, g.max)
		}
	}
}
