package main

import (
	"fmt"
	"time"

	"qosalloc"
	"qosalloc/internal/serve"
)

// traceWindows is how many windows a traced run's closed loop is split
// into; odd windows record spans, even ones do not.
const traceWindows = 20

// tracedClient records the duration of every op at the workload
// boundary, per op kind — the spans of a traced run — in the odd
// windows of its phase only. Alternating traced and untraced windows
// lets both see the same system state, so their throughput ratio is
// the tracing overhead rather than drift over the run.
type tracedClient struct {
	client
	rec   *recorder
	spans [numOpKinds][]float64 // µs
}

func (t *tracedClient) setClock(r *recorder) { t.rec = r }

func (t *tracedClient) do() (opKind, int, error) {
	if w := t.rec.windowOf(time.Now()); w < 0 || w%2 == 0 {
		return t.client.do()
	}
	s := time.Now()
	k, n, err := t.client.do()
	t.spans[k] = append(t.spans[k], usOf(time.Since(s)))
	return k, n, err
}

// traced wraps clients for a traced run.
func traced(clients []client) ([]client, []*tracedClient) {
	out := make([]client, len(clients))
	tcs := make([]*tracedClient, len(clients))
	for i, c := range clients {
		tcs[i] = &tracedClient{client: c}
		out[i] = tcs[i]
	}
	return out, tcs
}

// traceOverhead is one minus the ratio of traced-window to
// untraced-window throughput.
func traceOverhead(ph phase) float64 {
	odd := summarise(ph.recs, func(w int) bool { return w%2 == 1 })
	even := summarise(ph.recs, func(w int) bool { return w%2 == 0 })
	return 1 - odd.throughput/even.throughput
}

// spanNote formats a traced run's per-kind span medians.
func spanNote(tcs []*tracedClient) string {
	s := "spans (p50 µs at the workload boundary):"
	for k := opKind(0); k < numOpKinds; k++ {
		var xs []float64
		for _, t := range tcs {
			xs = append(xs, t.spans[k]...)
		}
		if len(xs) > 0 {
			s += fmt.Sprintf(" %s=%.2f (n=%d)", opNames[k], median(xs), len(xs))
		}
	}
	return s
}

// serveCounters are the service counters a traced phase reports, as
// deltas over the phase.
type serveCounters struct {
	ops                                    int64
	walks, enqueued, tokenHits, dedup      int64
	batches, batchedJobs, shed, allocFails int64
	commits, staleRetries                  int64
}

func (c serveCounters) set(r *report) {
	ops := float64(max(c.ops, 1))
	r.values["retrieval.walks_per_op"] = float64(c.walks) / ops
	r.values["serve.token_hit_ratio"] = float64(c.tokenHits) / float64(max(c.enqueued, 1))
	r.values["serve.dedup_hits"] = float64(c.dedup)
	r.values["serve.mean_batch"] = float64(c.batchedJobs) / float64(max(c.batches, 1))
	r.values["serve.shed"] = float64(c.shed)
	r.values["alloc.refused"] = float64(c.allocFails)
	r.values["learn.commits"] = float64(c.commits)
	r.values["learn.stale_retries"] = float64(c.staleRetries)
}

func svcCounters(st qosalloc.ServiceStats, es serve.EpochStats) serveCounters {
	return serveCounters{
		walks: st.EngineRetrievals, enqueued: st.Enqueued, tokenHits: st.TokenHits,
		dedup: st.DedupHits, batches: st.Batches, batchedJobs: st.BatchedJobs,
		shed: st.Shed, allocFails: st.AllocFailed,
		commits: es.Commits, staleRetries: es.StaleRetries,
	}
}

func (c serveCounters) minus(o serveCounters) serveCounters {
	return serveCounters{
		ops: c.ops - o.ops, walks: c.walks - o.walks, enqueued: c.enqueued - o.enqueued,
		tokenHits: c.tokenHits - o.tokenHits, dedup: c.dedup - o.dedup,
		batches: c.batches - o.batches, batchedJobs: c.batchedJobs - o.batchedJobs,
		shed: c.shed - o.shed, allocFails: c.allocFails - o.allocFails,
		commits: c.commits - o.commits, staleRetries: c.staleRetries - o.staleRetries,
	}
}
