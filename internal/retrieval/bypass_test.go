package retrieval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
)

func TestTokenCacheRoundTrip(t *testing.T) {
	tc := NewTokenCache()
	req := casebase.PaperRequest()
	if _, ok := tc.Lookup(req); ok {
		t.Fatal("empty cache must miss")
	}
	tok := Token{Type: req.Type, Impl: 2, Similarity: 0.96}
	tc.Store(req, tok)
	got, ok := tc.Lookup(req)
	if !ok || got != tok {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if tc.Len() != 1 {
		t.Errorf("Len = %d", tc.Len())
	}
	hits, misses := tc.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("counters = %d, %d", hits, misses)
	}
	if tc.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", tc.HitRate())
	}
}

func TestSignatureDistinguishesRequests(t *testing.T) {
	a := casebase.PaperRequest()
	b := casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 8}, // differs
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
		casebase.Constraint{ID: casebase.AttrSampleRate, Value: 40},
	).EqualWeights()
	if Signature(a) == Signature(b) {
		t.Error("different values must give different signatures")
	}
	// Same content, different construction order → same signature
	// (NewRequest sorts).
	c := casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrSampleRate, Value: 40},
		casebase.Constraint{ID: casebase.AttrOutputMode, Value: 1},
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
	).EqualWeights()
	if Signature(a) != Signature(c) {
		t.Error("order-insensitive requests must share a signature")
	}
	// Weight changes the signature: a reweighted request may retrieve
	// a different variant.
	d := a.NormalizeWeights()
	d.Constraints[0].Weight = 0.8
	d.Constraints[1].Weight = 0.1
	d.Constraints[2].Weight = 0.1
	if Signature(a) == Signature(d) {
		t.Error("weights must participate in the signature")
	}
}

func TestInvalidateType(t *testing.T) {
	tc := NewTokenCache()
	reqA := casebase.PaperRequest()
	reqB := casebase.NewRequest(casebase.Type1DFFT,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: 16},
	).EqualWeights()
	tc.Store(reqA, Token{Type: reqA.Type, Impl: 2})
	tc.Store(reqB, Token{Type: reqB.Type, Impl: 1})
	if n := tc.InvalidateType(casebase.TypeFIREqualizer); n != 1 {
		t.Errorf("InvalidateType dropped %d, want 1", n)
	}
	if _, ok := tc.Lookup(reqA); ok {
		t.Error("invalidated token still present")
	}
	if _, ok := tc.Lookup(reqB); !ok {
		t.Error("unrelated token lost")
	}
	tc.InvalidateAll()
	if tc.Len() != 0 {
		t.Error("InvalidateAll left tokens behind")
	}
}

func TestHitRateEmpty(t *testing.T) {
	if NewTokenCache().HitRate() != 0 {
		t.Error("HitRate before lookups must be 0")
	}
}

// lruReq builds a distinct request signature per i (the cache never
// validates requests, so synthetic constraint values are fine).
func lruReq(i int) casebase.Request {
	return casebase.NewRequest(casebase.TypeFIREqualizer,
		casebase.Constraint{ID: casebase.AttrBitwidth, Value: attr.Value(i)},
	).EqualWeights()
}

func TestTokenCacheLRUEviction(t *testing.T) {
	tc := NewTokenCache()
	tc.SetMaxTokens(3)
	for i := 0; i < 3; i++ {
		tc.Store(lruReq(i), Token{Type: 1, Impl: casebase.ImplID(i)})
	}
	// Touch 0 so 1 becomes the LRU tail.
	if _, ok := tc.Lookup(lruReq(0)); !ok {
		t.Fatal("token 0 missing before eviction")
	}
	tc.Store(lruReq(3), Token{Type: 1, Impl: 3})
	if tc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tc.Len())
	}
	if _, ok := tc.Lookup(lruReq(1)); ok {
		t.Error("LRU entry 1 survived past the cap")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := tc.Lookup(lruReq(i)); !ok {
			t.Errorf("entry %d evicted out of LRU order", i)
		}
	}
	if tc.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", tc.Evictions())
	}
}

func TestTokenCacheSetMaxTokensShrinks(t *testing.T) {
	tc := NewTokenCache()
	for i := 0; i < 8; i++ {
		tc.Store(lruReq(i), Token{Type: 1, Impl: casebase.ImplID(i)})
	}
	tc.SetMaxTokens(2)
	if tc.Len() != 2 {
		t.Fatalf("Len = %d after shrink, want 2", tc.Len())
	}
	// The two most recently stored entries survive.
	for _, i := range []int{6, 7} {
		if _, ok := tc.Lookup(lruReq(i)); !ok {
			t.Errorf("recent entry %d lost in shrink", i)
		}
	}
	if tc.Evictions() != 6 {
		t.Errorf("Evictions = %d, want 6", tc.Evictions())
	}
	// n < 1 keeps no tokens.
	tc.SetMaxTokens(0)
	if tc.Len() != 0 {
		t.Errorf("Len = %d with cap 0, want 0", tc.Len())
	}
	tc.Store(lruReq(9), Token{Type: 1, Impl: 9})
	if tc.Len() != 0 {
		t.Error("cap-0 cache retained a stored token")
	}
}

func TestTokenCacheStoreRefreshesRecency(t *testing.T) {
	tc := NewTokenCache()
	tc.SetMaxTokens(2)
	tc.Store(lruReq(0), Token{Type: 1, Impl: 0})
	tc.Store(lruReq(1), Token{Type: 1, Impl: 1})
	// Re-storing 0 (an updated pin) must refresh it, making 1 the tail.
	tc.Store(lruReq(0), Token{Type: 1, Impl: 10})
	tc.Store(lruReq(2), Token{Type: 1, Impl: 2})
	if got, ok := tc.Lookup(lruReq(0)); !ok || got.Impl != 10 {
		t.Errorf("refreshed entry = %+v, %v; want impl 10 present", got, ok)
	}
	if _, ok := tc.Lookup(lruReq(1)); ok {
		t.Error("stale entry 1 survived past the refreshed one")
	}
	// InvalidateType keeps the LRU bookkeeping consistent.
	if n := tc.InvalidateType(1); n != 2 {
		t.Errorf("InvalidateType = %d, want 2", n)
	}
	if len(tc.index) != 0 || len(tc.slots) != 0 || tc.head != -1 || tc.tail != -1 {
		t.Errorf("index/slots/list out of sync after invalidate: %d/%d, head %d tail %d",
			len(tc.index), len(tc.slots), tc.head, tc.tail)
	}
	checkLRU(t, tc)
}

func TestTokenCacheSetEpoch(t *testing.T) {
	tc := NewTokenCache()
	if tc.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d, want 0", tc.Epoch())
	}
	tc.SetEpoch(1)
	req := casebase.PaperRequest()
	tc.Store(req, Token{Type: req.Type, Impl: 2, Similarity: 0.96})
	tc.Store(lruReq(7), Token{Type: 1, Impl: 1})

	// Re-binding to the same epoch is a no-op: tokens survive.
	if n := tc.SetEpoch(1); n != 0 {
		t.Fatalf("SetEpoch(same) dropped %d tokens", n)
	}
	if _, ok := tc.Lookup(req); !ok {
		t.Fatal("same-epoch rebind lost a token")
	}

	// A new epoch empties the cache: a token minted against epoch N
	// must never bypass retrieval against epoch N+1.
	if n := tc.SetEpoch(2); n != 2 {
		t.Fatalf("SetEpoch(new) dropped %d tokens, want 2", n)
	}
	if tc.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tc.Epoch())
	}
	if tc.Len() != 0 {
		t.Fatalf("Len = %d after epoch change, want 0", tc.Len())
	}
	if _, ok := tc.Lookup(req); ok {
		t.Fatal("stale-epoch token still served")
	}
}

// checkLRU asserts the cache's internal invariants: the index and the
// dense slots agree entry for entry, and the recency list threads every
// slot exactly once from head to tail with consistent back links.
func checkLRU(t *testing.T, tc *TokenCache) {
	t.Helper()
	if len(tc.index) != len(tc.slots) {
		t.Fatalf("index has %d keys, slots hold %d", len(tc.index), len(tc.slots))
	}
	for i, sl := range tc.slots {
		if j, ok := tc.index[sl.key]; !ok || j != int32(i) {
			t.Fatalf("slot %d key %q indexed at %d (present %v)", i, sl.key, j, ok)
		}
	}
	n, prev := 0, int32(-1)
	for i := tc.head; i >= 0; i = tc.slots[i].next {
		if n == len(tc.slots) {
			t.Fatalf("recency list longer than the %d slots (cycle)", n)
		}
		if tc.slots[i].prev != prev {
			t.Fatalf("slot %d links back to %d, want %d", i, tc.slots[i].prev, prev)
		}
		prev = i
		n++
	}
	if n != len(tc.slots) || tc.tail != prev {
		t.Fatalf("recency list visits %d of %d slots and ends at %d, tail %d", n, len(tc.slots), prev, tc.tail)
	}
}

// modelLRU is the naive reference TokenCache: a most-recent-first
// slice searched linearly.
type modelLRU struct {
	keys      []string
	toks      []Token
	max       int
	epoch     uint64
	hits      int
	misses    int
	evictions int
}

func (m *modelLRU) find(key string) int { return slices.Index(m.keys, key) }

func (m *modelLRU) del(i int) {
	m.keys = slices.Delete(m.keys, i, i+1)
	m.toks = slices.Delete(m.toks, i, i+1)
}

func (m *modelLRU) front(key string, tok Token) {
	m.keys = slices.Insert(m.keys, 0, key)
	m.toks = slices.Insert(m.toks, 0, tok)
}

func (m *modelLRU) trim() {
	for len(m.keys) > m.max {
		m.del(len(m.keys) - 1)
		m.evictions++
	}
}

func (m *modelLRU) store(key string, tok Token) {
	if i := m.find(key); i >= 0 {
		m.del(i)
	}
	m.front(key, tok)
	m.trim()
}

func (m *modelLRU) lookup(key string) (Token, bool) {
	i := m.find(key)
	if i < 0 {
		m.misses++
		return Token{}, false
	}
	m.hits++
	tok := m.toks[i]
	m.del(i)
	m.front(key, tok)
	return tok, true
}

func (m *modelLRU) invalidateType(ty casebase.TypeID) int {
	n := 0
	for i := 0; i < len(m.keys); {
		if m.toks[i].Type == ty {
			m.del(i)
			n++
			continue
		}
		i++
	}
	return n
}

func (m *modelLRU) setEpoch(e uint64) int {
	if e == m.epoch {
		return 0
	}
	n := len(m.keys)
	m.keys, m.toks, m.epoch = nil, nil, e
	return n
}

// TestTokenCacheMatchesModel drives random Store, Lookup,
// InvalidateType, InvalidateAll, SetMaxTokens and SetEpoch sequences
// through a TokenCache and the naive reference LRU, and requires the
// same answers, counters and recency order after every step. The
// small key and type spaces keep hits, refreshes and swap-removes of
// every slot position frequent.
func TestTokenCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		tc := NewTokenCache()
		m := &modelLRU{max: DefaultMaxTokens}
		for step := 0; step < 400; step++ {
			key := fmt.Sprint("k", r.Intn(24))
			tok := Token{Type: casebase.TypeID(r.Intn(4)), Impl: casebase.ImplID(r.Intn(100)), Similarity: r.Float64()}
			var op string
			switch p := r.Intn(100); {
			case p < 40:
				op = "store " + key
				tc.StoreSig([]byte(key), tok)
				m.store(key, tok)
			case p < 80:
				op = "lookup " + key
				got, ok := tc.LookupSig([]byte(key))
				want, wok := m.lookup(key)
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d %s: got %+v %v, want %+v %v", seed, step, op, got, ok, want, wok)
				}
			case p < 88:
				op = fmt.Sprint("invalidate type ", tok.Type)
				if got, want := tc.InvalidateType(tok.Type), m.invalidateType(tok.Type); got != want {
					t.Fatalf("seed %d step %d %s: dropped %d, want %d", seed, step, op, got, want)
				}
			case p < 95:
				n := r.Intn(12) - 1
				op = fmt.Sprint("set max ", n)
				tc.SetMaxTokens(n)
				m.max = max(n, 0)
				m.trim()
			case p < 98:
				e := uint64(r.Intn(3))
				op = fmt.Sprint("set epoch ", e)
				if got, want := tc.SetEpoch(e), m.setEpoch(e); got != want {
					t.Fatalf("seed %d step %d %s: dropped %d, want %d", seed, step, op, got, want)
				}
			default:
				op = "invalidate all"
				tc.InvalidateAll()
				m.keys, m.toks = nil, nil
			}
			checkLRU(t, tc)
			var order []string
			for i := tc.head; i >= 0; i = tc.slots[i].next {
				order = append(order, tc.slots[i].key)
				if len(order) > len(m.keys) {
					t.Fatalf("seed %d step %d %s: %d tokens, want %d", seed, step, op, tc.Len(), len(m.keys))
				}
				if tc.slots[i].tok != m.toks[len(order)-1] {
					t.Fatalf("seed %d step %d %s: token of %q = %+v, want %+v",
						seed, step, op, tc.slots[i].key, tc.slots[i].tok, m.toks[len(order)-1])
				}
			}
			if !slices.Equal(order, m.keys) {
				t.Fatalf("seed %d step %d %s: recency order %v, want %v", seed, step, op, order, m.keys)
			}
			hits, misses := tc.Counters()
			if tc.Len() != len(m.keys) || hits != m.hits || misses != m.misses ||
				tc.Evictions() != m.evictions || tc.Epoch() != m.epoch {
				t.Fatalf("seed %d step %d %s: len %d hits %d misses %d evictions %d epoch %d, want %d %d %d %d %d",
					seed, step, op, tc.Len(), hits, misses, tc.Evictions(), tc.Epoch(),
					len(m.keys), m.hits, m.misses, m.evictions, m.epoch)
			}
		}
	}
}
