package retrieval

import (
	"encoding/binary"
	"math"

	"qosalloc/internal/casebase"
)

// DefaultMaxTokens is the retention cap of a TokenCache. Tokens are
// small, but the batching service layer deduplicates on request
// signatures drawn from an open-ended space (every distinct constraint
// vector is a new key), so an uncapped cache grows linearly with
// workload diversity. The cap bounds it to the hot working set; colder
// signatures fall off the LRU tail and simply pay retrieval again: the
// cap bounds steady-state footprint, not peak correctness.
const DefaultMaxTokens = 4096

// Token is the paper's bypass token (§3): "data on the previous selection
// which can be reused at repeated function calls so that only an
// availability check on the function and its allocated resources has to
// be done". It pins the implementation chosen for a request signature.
type Token struct {
	Type       casebase.TypeID
	Impl       casebase.ImplID
	Similarity float64
}

// tokenSlot is one LRU entry: the signature key, its token and the
// recency links, which are indices into TokenCache.slots (-1 ends the
// list).
type tokenSlot struct {
	key        string
	tok        Token
	prev, next int32
}

// TokenCache maps request signatures to bypass tokens with LRU
// retention bounded by SetMaxTokens (DefaultMaxTokens initially). It is
// a plain cache: the allocation manager stores a token after a
// successful placement and invalidates it when the case base changes or
// the pinned implementation is evicted. Not safe for concurrent use;
// the allocation manager — and each serve shard — serializes access.
//
// The entries live in one dense slice threaded by a doubly linked
// recency list of slot indices, so a stored token costs its map entry,
// its slot and its key, and no per-entry list node.
type TokenCache struct {
	index map[string]int32 // signature → slot
	// slots is dense: removing an entry moves the last slot into the
	// hole and re-points its neighbours and its index entry.
	slots      []tokenSlot
	head, tail int32 // most and least recently used slot, -1 when empty
	max        int
	epoch      uint64 // case-base epoch the live tokens were minted against
	hits       int
	misses     int
	evictions  int
}

// NewTokenCache returns an empty cache capped at DefaultMaxTokens.
func NewTokenCache() *TokenCache {
	return &TokenCache{
		index: make(map[string]int32),
		head:  -1,
		tail:  -1,
		max:   DefaultMaxTokens,
	}
}

// SetMaxTokens bounds the cache to n tokens, evicting the least recently
// used beyond it (n < 1 keeps no tokens: every Store is immediately
// evicted, every Lookup misses).
func (tc *TokenCache) SetMaxTokens(n int) {
	if n < 0 {
		n = 0
	}
	tc.max = n
	for len(tc.slots) > n {
		tc.evictOldest()
	}
}

// evictOldest drops the LRU tail entry.
func (tc *TokenCache) evictOldest() {
	if tc.tail < 0 {
		return
	}
	tc.remove(tc.tail)
	tc.evictions++
}

// unlink takes slot i out of the recency list.
func (tc *TokenCache) unlink(i int32) {
	sl := &tc.slots[i]
	if sl.prev >= 0 {
		tc.slots[sl.prev].next = sl.next
	} else {
		tc.head = sl.next
	}
	if sl.next >= 0 {
		tc.slots[sl.next].prev = sl.prev
	} else {
		tc.tail = sl.prev
	}
}

// pushFront links slot i in as the most recently used.
func (tc *TokenCache) pushFront(i int32) {
	sl := &tc.slots[i]
	sl.prev, sl.next = -1, tc.head
	if tc.head >= 0 {
		tc.slots[tc.head].prev = i
	} else {
		tc.tail = i
	}
	tc.head = i
}

// touch makes slot i the most recently used.
func (tc *TokenCache) touch(i int32) {
	if tc.head != i {
		tc.unlink(i)
		tc.pushFront(i)
	}
}

// remove deletes slot i and fills the hole with the last slot.
func (tc *TokenCache) remove(i int32) {
	tc.unlink(i)
	delete(tc.index, tc.slots[i].key)
	last := int32(len(tc.slots) - 1)
	if i != last {
		moved := tc.slots[last]
		tc.slots[i] = moved
		if moved.prev >= 0 {
			tc.slots[moved.prev].next = i
		} else {
			tc.head = i
		}
		if moved.next >= 0 {
			tc.slots[moved.next].prev = i
		} else {
			tc.tail = i
		}
		tc.index[moved.key] = i
	}
	tc.slots[last] = tokenSlot{} // drop the key string
	tc.slots = tc.slots[:last]
}

// Signature derives the cache key from a request: function type plus the
// sorted (ID, value, weight) constraint list. Two requests with the same
// signature would retrieve the same implementation, so the retrieval can
// be bypassed for the second one. Weights participate via their exact
// bit pattern. The key is binary — 16-bit type, then 16-bit ID, 16-bit
// value and the 64-bit weight per constraint, little-endian — because
// it is only ever compared as a key, and it sits on the hot batching
// path.
func Signature(req casebase.Request) string {
	var buf [sigStackBytes]byte
	return string(AppendSignature(buf[:0], req))
}

// sigStackBytes sizes the stack buffers Signature, Lookup and Store
// build a key in: a request of up to 8 constraints never reaches the
// heap.
const sigStackBytes = 2 + 12*8

// AppendSignature appends req's Signature bytes to dst and returns the
// extended slice. Callers that keep a buffer per request (the serve
// layer's pooled jobs) derive keys without allocating.
func AppendSignature(dst []byte, req casebase.Request) []byte {
	b := binary.LittleEndian.AppendUint16(dst, uint16(req.Type))
	for _, c := range req.Constraints {
		b = binary.LittleEndian.AppendUint16(b, uint16(c.ID))
		b = binary.LittleEndian.AppendUint16(b, uint16(c.Value))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Weight))
	}
	return b
}

// Lookup returns the token for req if one is cached, refreshing its
// recency.
func (tc *TokenCache) Lookup(req casebase.Request) (Token, bool) {
	var buf [sigStackBytes]byte
	return tc.LookupSig(AppendSignature(buf[:0], req))
}

// LookupSig is Lookup keyed by precomputed signature bytes (see
// AppendSignature) — callers that already derived the signature (the
// serve batcher dedups on it) avoid recomputing it. It does not
// allocate.
func (tc *TokenCache) LookupSig(sig []byte) (Token, bool) {
	i, ok := tc.index[string(sig)]
	if !ok {
		tc.misses++
		return Token{}, false
	}
	tc.hits++
	tc.touch(i)
	return tc.slots[i].tok, true
}

// Store caches a token for req as the most recently used entry, evicting
// the LRU tail when the cap is exceeded.
func (tc *TokenCache) Store(req casebase.Request, t Token) {
	var buf [sigStackBytes]byte
	tc.StoreSig(AppendSignature(buf[:0], req), t)
}

// StoreSig is Store keyed by precomputed signature bytes. The bytes are
// copied into a string key only when they insert a new entry, so
// refreshing a cached signature does not allocate.
func (tc *TokenCache) StoreSig(sig []byte, t Token) {
	if i, ok := tc.index[string(sig)]; ok {
		tc.slots[i].tok = t
		tc.touch(i)
		return
	}
	key := string(sig)
	i := int32(len(tc.slots))
	tc.slots = append(tc.slots, tokenSlot{key: key, tok: t})
	tc.index[key] = i
	tc.pushFront(i)
	for len(tc.slots) > tc.max {
		tc.evictOldest()
	}
}

// InvalidateType drops every token pinned to function type t — the
// correct response when t's implementation sub-tree is updated at run
// time (the paper's future-work dynamic case-base update). Invalidations
// are not counted as evictions.
func (tc *TokenCache) InvalidateType(t casebase.TypeID) int {
	n := 0
	for i := int32(0); int(i) < len(tc.slots); {
		if tc.slots[i].tok.Type == t {
			tc.remove(i) // the last slot moved into i: look at i again
			n++
			continue
		}
		i++
	}
	return n
}

// InvalidateAll empties the cache.
func (tc *TokenCache) InvalidateAll() {
	clear(tc.index)
	clear(tc.slots)
	tc.slots = tc.slots[:0]
	tc.head, tc.tail = -1, -1
}

// Epoch returns the case-base epoch the live tokens were minted against
// (zero until SetEpoch is first called).
func (tc *TokenCache) Epoch() uint64 { return tc.epoch }

// SetEpoch binds the cache to a case-base epoch. Moving to a different
// epoch empties the cache first: a token minted against snapshot N must
// never bypass retrieval against snapshot N+1, because the pinned
// implementation may have been revised or retired in between. It
// returns how many stale tokens were dropped. Invalidations are not
// counted as evictions.
func (tc *TokenCache) SetEpoch(epoch uint64) int {
	if epoch == tc.epoch {
		return 0
	}
	n := len(tc.slots)
	tc.InvalidateAll()
	tc.epoch = epoch
	return n
}

// Len returns the number of live tokens.
func (tc *TokenCache) Len() int { return len(tc.slots) }

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (tc *TokenCache) HitRate() float64 {
	n := tc.hits + tc.misses
	if n == 0 {
		return 0
	}
	return float64(tc.hits) / float64(n)
}

// Counters returns the raw hit/miss counts.
func (tc *TokenCache) Counters() (hits, misses int) { return tc.hits, tc.misses }

// Evictions returns how many tokens the LRU cap has dropped.
func (tc *TokenCache) Evictions() int { return tc.evictions }
