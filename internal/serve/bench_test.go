package serve

import (
	"context"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/workload"
)

// benchWorkload is the Table-3 capacity point (15 types × 10 impls × 10
// attrs) with a repeat-heavy client stream: 64 concurrent clients
// replaying each other's requests is exactly the regime the batching
// layer targets.
func benchWorkload(b *testing.B) (*casebase.CaseBase, []casebase.Request) {
	b.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: 512, ConstraintsPer: 5, RepeatFraction: 0.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cb, reqs
}

// uniqueStream is the Table-3 case base with n requests that never
// repeat: GenRequests with no repeats, then any accidental signature
// collision dropped, so every request is distinct.
func uniqueStream(tb testing.TB, n int) (*casebase.CaseBase, []casebase.Request) {
	tb.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{
		N: n, ConstraintsPer: 5, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	seen := make(map[string]bool, n)
	out := reqs[:0]
	for _, r := range reqs {
		if sig := retrieval.Signature(r); !seen[sig] {
			seen[sig] = true
			out = append(out, r)
		}
	}
	return cb, out
}

// BenchmarkServeLoneRetrieve is the "lone served retrieve" rung: one
// caller, one Service.Retrieve at a time over 4 shards, so every op
// pays the full handoff to a shard worker and back with nothing to
// batch with. The stream is four times the service's token budget and
// never repeats within it, so the LRU has always dropped a request
// before it comes round again: every op is a token miss and a walk.
func BenchmarkServeLoneRetrieve(b *testing.B) {
	cb, reqs := uniqueStream(b, 4*retrieval.DefaultMaxTokens)
	s := New(cb, fig1System(b, cb), Config{Shards: 4})
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Retrieve(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().TokenHits)/float64(b.N), "tokenhits/op")
}

// BenchmarkServeSequential is the baseline: one engine, one request at
// a time, no batching, no dedup, no token bypass. One op = the whole
// 512-request stream.
func BenchmarkServeSequential(b *testing.B) {
	cb, reqs := benchWorkload(b)
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := eng.Retrieve(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeBatch drives the same stream through the service as 64
// client-sized micro-batches over 8 shards. The win on a single CPU
// comes from singleflight dedup and the shard token caches — repeated
// signatures skip the linear list walk entirely; extra cores add shard
// parallelism on top. One op = the whole 512-request stream.
func BenchmarkServeBatch(b *testing.B) {
	cb, reqs := benchWorkload(b)
	s := New(cb, fig1System(b, cb), Config{Shards: 8, MaxBatch: 64})
	defer s.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(reqs); lo += 64 {
			out, err := s.RetrieveBatch(ctx, reqs[lo:lo+64])
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range out {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.TokenHits)/float64(b.N), "tokenhits/op")
	b.ReportMetric(float64(st.DedupHits)/float64(b.N), "deduphits/op")
}
