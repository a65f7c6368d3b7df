package serve

import (
	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

// snapshot is one committed epoch of the case base: the immutable tree
// plus the per-shard retrieval engines and bypass token caches built
// over it, installed behind Service.snap as a single unit. Readers load
// the pointer once per batch (under their shard mutex) and never see a
// half-updated epoch: engines, token caches and the tree a token is
// validated against always agree.
//
// Epochs are numbered from 1 (the snapshot New builds). Every commit —
// fold, structural retain/retire, or manual CommitNow — installs epoch
// N+1 with freshly built engines and empty token caches bound to the
// new epoch via TokenCache.SetEpoch, so a token minted against epoch N
// can never bypass retrieval against epoch N+1.
type snapshot struct {
	epoch   uint64
	cb      *casebase.CaseBase
	engines []*retrieval.Engine
	tokens  []*retrieval.TokenCache
}

// CaseBase returns the committed epoch's case base — the immutable tree
// the service currently retrieves against. After a commit it returns
// the new tree; callers validating requests against it must tolerate a
// request racing a commit (the service's own epoch checks do).
func (s *Service) CaseBase() *casebase.CaseBase { return s.snap.Load().cb }

// newSnapshot builds the epoch's per-shard engines and token caches
// over cb. rm may be nil (uninstrumented service). The shards split one
// token budget, retrieval.DefaultMaxTokens for the whole service — the
// allocation manager's single cache holds the same — so adding shards
// does not multiply the tokens held.
func newSnapshot(epoch uint64, cb *casebase.CaseBase, shards int, opt retrieval.Options, rm *retrieval.Metrics) *snapshot {
	sn := &snapshot{epoch: epoch, cb: cb}
	perShard := max(retrieval.DefaultMaxTokens/shards, 1)
	for i := 0; i < shards; i++ {
		eng := retrieval.NewEngine(cb, opt)
		if rm != nil {
			eng.Instrument(rm)
		}
		tc := retrieval.NewTokenCache()
		tc.SetMaxTokens(perShard)
		tc.SetEpoch(epoch)
		sn.engines = append(sn.engines, eng)
		sn.tokens = append(sn.tokens, tc)
	}
	return sn
}

// resultFromToken rebuilds the full Result a fresh engine walk would
// return for the token's signature against THIS epoch's tree: the
// engine is deterministic over the immutable snapshot, so (Type, Impl,
// Similarity) plus the tree's Target/Name reproduce it bit for bit —
// with nil Locals, exactly like a KeepLocals-off walk. A token whose
// implementation is gone from this epoch reports live=false and the
// caller walks the engine instead.
func (sn *snapshot) resultFromToken(tok retrieval.Token) (retrieval.Result, bool) {
	ft, ok := sn.cb.Type(tok.Type)
	if !ok {
		return retrieval.Result{}, false
	}
	im, ok := ft.Impl(tok.Impl)
	if !ok {
		return retrieval.Result{}, false
	}
	return retrieval.Result{
		Type: tok.Type, Impl: tok.Impl, Target: im.Target, Name: im.Name,
		Similarity: tok.Similarity,
	}, true
}
