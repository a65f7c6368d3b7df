package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

// TestServeAllocs gates the served request path's allocations at the
// Table 3 shape: a lone Retrieve answered from the shard token cache
// allocates nothing, one that misses allocates only the token key it
// stores, and a RetrieveBatch of cached signatures pays a per-call
// overhead that does not grow with the batch.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cb, reqs := uniqueStream(t, 3*retrieval.DefaultMaxTokens)
	s := New(cb, fig1System(t, cb), Config{Shards: 4})
	defer s.Close()
	ctx := context.Background()
	retrieve := func(req casebase.Request) {
		if _, err := s.Retrieve(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	hit := reqs[0]
	retrieve(hit)
	if got := testing.AllocsPerRun(500, func() { retrieve(hit) }); got != 0 {
		t.Errorf("Retrieve token hit: %v allocs/op, want 0", got)
	}

	// Fill every shard's token cache to its cap first, so the misses
	// below run at steady state: each stores one new key and evicts one.
	for _, r := range reqs[1 : 1+retrieval.DefaultMaxTokens] {
		retrieve(r)
	}
	next := 1 + retrieval.DefaultMaxTokens
	if got := testing.AllocsPerRun(1000, func() { retrieve(reqs[next]); next++ }); got > 1 {
		t.Errorf("Retrieve token miss: %v allocs/op, want ≤ 1", got)
	}

	// Batches of already-cached signatures: the allocations are the
	// call's fixed fan-out, so a batch 16 times longer may not cost more
	// than that overhead again.
	batch := func(n int) float64 {
		b := reqs[next-n : next]
		return testing.AllocsPerRun(50, func() {
			if _, err := s.RetrieveBatch(ctx, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := batch(16), batch(256)
	t.Logf("RetrieveBatch of cached signatures: %v allocs for 16 items, %v for 256", short, long)
	if long > 2*short {
		t.Errorf("RetrieveBatch of cached signatures: %v allocs for 256 items vs %v for 16, want ≤ %v",
			long, short, 2*short)
	}
}

// TestAbandonedJobsNeverRecycled pins the job pool's ownership rule: a
// caller that gives up on a queued or in-flight job must not return it
// to the pool, because the shard worker still holds it and will still
// reply on its done channel. Two callers are abandoned on a wedged
// shard; the pool is then churned on the other shard while the wedge
// holds, and after it lifts every retrieve and candidate fetch of a
// 1200-request distinct stream, from several goroutines, must equal a
// sequential engine. A recycled abandoned job would deliver a stale
// reply to its next owner, race its worker on the job's fields, or
// block the worker on a second send into its done channel.
func TestAbandonedJobsNeverRecycled(t *testing.T) {
	cb, reqs := uniqueStream(t, 1200)
	if len(reqs) < 1000 {
		t.Fatalf("only %d distinct requests", len(reqs))
	}
	s := New(cb, fig1System(t, cb), Config{Shards: 2, MaxBatch: 4})
	defer s.Close()
	nbest := s.cfg.Manager.NBest
	seq := retrieval.NewEngine(cb, retrieval.Options{})
	type want struct {
		best retrieval.Result
		list []retrieval.Result
	}
	wants := make([]want, len(reqs))
	for k, r := range reqs {
		var err error
		if wants[k].best, err = seq.Retrieve(r); err != nil {
			t.Fatal(err)
		}
		if wants[k].list, err = seq.RetrieveN(r, nbest); err != nil {
			t.Fatal(err)
		}
	}
	// drive serves reqs[k] for every k in ks from four goroutines, once
	// through Retrieve and once through the candidate path.
	drive := func(ks []int) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				for i := g; i < len(ks); i += 4 {
					k := ks[i]
					got, err := s.Retrieve(ctx, reqs[k])
					if err != nil || !reflect.DeepEqual(got, wants[k].best) {
						t.Errorf("Retrieve req %d = %+v, %v; sequential %+v", k, got, err, wants[k].best)
					}
					list, _, err := s.candidates(ctx, reqs[k])
					if err != nil || !reflect.DeepEqual(list, wants[k].list) {
						t.Errorf("candidates req %d = %+v, %v; sequential %+v", k, list, err, wants[k].list)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	var onWedged, onFree, all []int
	for k, r := range reqs {
		all = append(all, k)
		if s.shardFor(r.Type) == s.shards[0] {
			onWedged = append(onWedged, k)
		} else {
			onFree = append(onFree, k)
		}
	}

	sh := s.shards[0]
	sh.mu.Lock() // wedge shard 0's worker mid-batch
	unwedge := sync.OnceFunc(sh.mu.Unlock)
	defer unwedge() // before Close, which waits for the worker, if the test fails early
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 2)
	go func() { _, err := s.Retrieve(ctx, reqs[onWedged[0]]); gaveUp <- err }()
	waitFor(t, "worker to take the first job", func() bool { return len(sh.q) == 0 && s.enqueued.Load() == 1 })
	go func() { _, _, err := s.candidates(ctx, reqs[onWedged[1]]); gaveUp <- err }()
	// The worker may still be gathering its batch, so the second job is
	// either queued or in the wedged batch; either way the worker holds it.
	waitFor(t, "second job to be admitted", func() bool { return s.enqueued.Load() == 2 })
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-gaveUp; !errors.Is(err, retrieval.ErrCanceled) {
			t.Fatalf("abandoned caller %d: err = %v, want ErrCanceled", i, err)
		}
	}
	drive(onFree) // the shard 0 worker still holds both abandoned jobs
	unwedge()
	drive(all)
	if c := s.canceled.Load(); c != 2 {
		t.Errorf("Canceled = %d, want the 2 abandoned jobs", c)
	}
}
