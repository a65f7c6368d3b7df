package retrieval

// Compacted-layout retrieval benchmark (E-compact: §5's projected ~2×
// speedup, the software half). BenchmarkCompactVsPointerWalk reports
// the compacted FixedEngine against the pointer-walk oracle under the
// normal -bench flow; TestCompactRetrievalSpeedup is the
// `make bench-compact` CI gate — it times the same two loops with
// testing.Benchmark, FAILS if the compacted kernel is not faster than
// the pointer walk, and refreshes BENCH_compact_retrieval.json when
// pointed at an output file.

import (
	"encoding/json"
	"os"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/memlist"
	"qosalloc/internal/workload"
)

// paperScaleStream is the E-compact fixture: the Table 3 case base
// (15 types × 10 impls × 10 attributes) and a 64-request stream.
func paperScaleStream(b *testing.B) (*casebase.CaseBase, []casebase.Request) {
	b.Helper()
	cb, reg, err := workload.GenCaseBase(workload.PaperScale())
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenRequests(cb, reg, workload.RequestStreamSpec{N: 64, ConstraintsPer: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return cb, reqs
}

// benchPointerWalk times Retrieve over the stream on the pointer-walk
// oracle.
func benchPointerWalk(b *testing.B) {
	cb, reqs := paperScaleStream(b)
	pw := newPointerWalk(cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.Retrieve(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompact times Retrieve over the stream on the compacted
// FixedEngine.
func benchCompact(b *testing.B) {
	cb, reqs := paperScaleStream(b)
	fe := NewFixedEngine(cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fe.Retrieve(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactVsPointerWalk (E-compact): the same paper-scale
// request stream through the pointer-walk oracle and the compacted
// kernel. Both produce bit-identical Q15 results
// (TestCompactMatchesFixedBitIdentical); this measures only the
// fetch-path cost.
func BenchmarkCompactVsPointerWalk(b *testing.B) {
	b.Run("pointer-walk", benchPointerWalk)
	b.Run("compact", benchCompact)
}

// compactBenchReport is the BENCH_compact_retrieval.json schema. The
// fixed_* key names the pointer-walk baseline.
type compactBenchReport struct {
	Benchmark        string  `json:"benchmark"`
	Types            int     `json:"types"`
	ImplsPerType     int     `json:"impls_per_type"`
	AttrsPerImpl     int     `json:"attrs_per_impl"`
	Requests         int     `json:"requests"`
	FixedNsPerOp     int64   `json:"fixed_ns_per_op"`
	CompactNsPerOp   int64   `json:"compact_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	UncompactedWords int     `json:"uncompacted_words"`
	CompactWords     int     `json:"compact_words"`
	SavedWords       int     `json:"saved_words"`
}

// TestCompactRetrievalSpeedup is the bench-compact gate. It is skipped
// unless QOS_BENCH_COMPACT=1 so the regular test suite stays fast and
// timing-independent; `make bench-compact` sets the variable. With
// QOS_BENCH_OUT set, the measured report is written there
// (BENCH_compact_retrieval.json at the repo root is the committed
// copy).
func TestCompactRetrievalSpeedup(t *testing.T) {
	if os.Getenv("QOS_BENCH_COMPACT") != "1" {
		t.Skip("set QOS_BENCH_COMPACT=1 (make bench-compact) to run the timing gate")
	}
	walkNs := testing.Benchmark(benchPointerWalk).NsPerOp()
	compactNs := testing.Benchmark(benchCompact).NsPerOp()
	if walkNs <= 0 || compactNs <= 0 {
		t.Fatalf("degenerate timings: pointer walk %d ns/op, compact %d ns/op", walkNs, compactNs)
	}
	speedup := float64(walkNs) / float64(compactNs)
	mr := memlist.CompactReport(15, 10, 10, 10)
	rep := compactBenchReport{
		Benchmark: "compact_retrieval",
		Types:     15, ImplsPerType: 10, AttrsPerImpl: 10, Requests: 64,
		FixedNsPerOp: walkNs, CompactNsPerOp: compactNs, Speedup: speedup,
		UncompactedWords: mr.UncompactedWords, CompactWords: mr.CompactWords,
		SavedWords: mr.SavedWords,
	}
	t.Logf("pointer walk %d ns/op, compact %d ns/op, speedup %.2fx, footprint %d→%d words",
		walkNs, compactNs, speedup, mr.UncompactedWords, mr.CompactWords)
	if out := os.Getenv("QOS_BENCH_OUT"); out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if compactNs >= walkNs {
		t.Fatalf("compacted retrieval (%d ns/op) is not faster than the pointer-walk baseline (%d ns/op)",
			compactNs, walkNs)
	}
}
