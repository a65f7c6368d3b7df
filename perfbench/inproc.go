package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"qosalloc"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/learn"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/rtsys"
	"qosalloc/internal/serve"
)

// qosdServiceOptions are the service options qosd builds with its
// default flags (shards 4, max-batch 16, max-queue 64, no linger,
// threshold 0, preemption on, float layout, instrumented), plus
// learning with qosd's -learn defaults when asked.
func qosdServiceOptions(learning bool) []qosalloc.Option {
	opts := []qosalloc.Option{
		qosalloc.WithShards(4),
		qosalloc.WithMaxBatch(16),
		qosalloc.WithMaxQueue(64),
		qosalloc.WithBatchWindow(0),
		qosalloc.WithThreshold(0),
		qosalloc.WithPreemption(true),
		qosalloc.WithCompactLayout(false),
		qosalloc.WithRegistry(qosalloc.NewObsRegistry()),
	}
	if learning {
		opts = append(opts, qosalloc.WithLearning(serve.DefaultAlpha, serve.DefaultFoldThreshold, 0))
	}
	return opts
}

// newPlatform builds qosd's platform shape — one FPGA with
// reconfigurable slots, a DSP and a GPP — with slots slots and
// processor capacity cpu on each processor.
func newPlatform(cb *qosalloc.CaseBase, slots, cpu int) (*qosalloc.Runtime, error) {
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		return nil, err
	}
	ss := make([]qosalloc.FPGASlot, slots)
	for i := range ss {
		ss[i] = qosalloc.FPGASlot{Slices: 1500, BRAMs: 8, Multipliers: 16}
	}
	return qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", ss, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, cpu, 1<<20),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, cpu, 1<<21),
	), nil
}

// heldPerClient is how many placed tasks a hot_mixed client keeps
// before releasing its oldest. With at most heldPerClient+1 tasks per
// client live, a roomyPlatform fits every live task whichever variants
// they hold, so no placement depends on how clients interleave.
const heldPerClient = 2

// roomyPlatform sizes a platform for clients closed-loop callers each
// holding up to heldPerClient+1 tasks: a slot per task and processor
// capacity above the generator's largest CPU load (850) per task.
func roomyPlatform(cb *qosalloc.CaseBase, clients int) (*qosalloc.Runtime, error) {
	live := clients * (heldPerClient + 1)
	return newPlatform(cb, live, 900*live)
}

// streamItem is one op a workload stream asks for.
type streamItem struct {
	kind opKind
	req  casebase.Request
}

// stream is one client's deterministic op sequence.
type stream interface{ next() streamItem }

// uniqueStream issues retrieves of never-repeated requests: client c of
// n takes generator indices c, c+n, c+2n, …
type uniqueStream struct {
	gen     *uniqueGen
	k, step uint64
}

func (s *uniqueStream) next() streamItem {
	req := s.gen.request(s.k)
	s.k += s.step
	return streamItem{kind: opRetrieve, req: req}
}

// Hot-mixed stream parameters: the share of requests that repeat one of
// the client's recent requests, the size of that recent set, and the
// op mix (the rest observes).
const (
	hotRepeat   = 0.9
	hotRing     = 256
	hotRetrieve = 0.7
	hotAllocate = 0.2
)

// hotStream draws a repeat-heavy op mix: with probability hotRepeat a
// request repeats one of the client's last hotRing new requests, else
// it is a new unique request.
type hotStream struct {
	uniq uniqueStream
	r    *rand.Rand
	ring []casebase.Request
	pos  int
}

func newHotStream(gen *uniqueGen, seed int64, c, n int) *hotStream {
	return &hotStream{
		uniq: uniqueStream{gen: gen, k: uint64(c), step: uint64(n)},
		r:    rand.New(rand.NewSource(seed*7919 + int64(c))),
	}
}

func (s *hotStream) next() streamItem {
	var req casebase.Request
	if len(s.ring) > 0 && s.r.Float64() < hotRepeat {
		req = s.ring[s.r.Intn(len(s.ring))]
	} else {
		req = s.uniq.next().req
		if len(s.ring) < hotRing {
			s.ring = append(s.ring, req)
		} else {
			s.ring[s.pos] = req
			s.pos = (s.pos + 1) % hotRing
		}
	}
	kind := opObserve
	switch u := s.r.Float64(); {
	case u < hotRetrieve:
		kind = opRetrieve
	case u < hotRetrieve+hotAllocate:
		kind = opAllocate
	}
	return streamItem{kind: kind, req: req}
}

// newStreams returns the per-client streams of an in-process workload.
func newStreams(w string, gen *uniqueGen, seed int64, clients int) []stream {
	out := make([]stream, clients)
	for c := range out {
		if w == "hot_mixed" {
			out[c] = newHotStream(gen, seed, c, clients)
		} else {
			out[c] = &uniqueStream{gen: gen, k: uint64(c), step: uint64(clients)}
		}
	}
	return out
}

// replay replays each client's first counts[c] stream items, one
// goroutine per client, calling visit (when not nil) with the client,
// the item's 1-based index and its request. It returns the share of
// requests whose signature appeared earlier in the same client's
// stream — clients draw disjoint unique indices, so none repeats
// across clients — and the errors visit returned.
func replay(streams []stream, counts []int64, visit func(c int, k int64, req casebase.Request) error) (float64, error) {
	repeats := make([]int64, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for c, s := range streams {
		wg.Add(1)
		go func(c int, s stream) {
			defer wg.Done()
			hashes := make([]uint64, counts[c])
			h := fnv.New64a()
			for k := int64(1); k <= counts[c]; k++ {
				req := s.next().req
				h.Reset()
				h.Write([]byte(retrieval.Signature(req)))
				hashes[k-1] = h.Sum64()
				if visit != nil && errs[c] == nil {
					errs[c] = visit(c, k, req)
				}
			}
			// After sorting, every hash equal to its predecessor is a
			// request seen earlier.
			slices.Sort(hashes)
			for i := 1; i < len(hashes); i++ {
				if hashes[i] == hashes[i-1] {
					repeats[c]++
				}
			}
		}(c, s)
	}
	wg.Wait()
	var total, rep int64
	for c := range streams {
		total += counts[c]
		rep += repeats[c]
	}
	return float64(rep) / float64(max(total, 1)), errors.Join(errs...)
}

// FNV-1a parameters for the result digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashResult folds one retrieval result into a client's FNV-1a result
// digest without allocating, so the digest does not show in
// allocs_per_op.
func hashResult(h uint64, k int64, r retrieval.Result) uint64 {
	for _, v := range [...]uint64{uint64(k), uint64(r.Type)<<32 | uint64(r.Impl)<<8 | uint64(r.Target), math.Float64bits(r.Similarity)} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime
		}
	}
	for i := 0; i < len(r.Name); i++ {
		h = (h ^ uint64(r.Name[i])) * fnvPrime
	}
	return h
}

// driftShare is the share of observations that report one attribute
// ±driftLSB off its committed value; the rest confirm the committed
// values and pull pending revisions back, so folds trip far less often
// than observations arrive and the token caches mostly stay warm.
const (
	driftShare = 0.125
	driftLSB   = 2
)

// svcClient is one in-process closed-loop caller of the service facade.
type svcClient struct {
	app     string
	svc     *qosalloc.Service
	s       stream
	r       *rand.Rand // observation drift
	items   int64      // stream items consumed
	digest  uint64     // FNV-1a over every retrieve result, in order
	holds   []qosalloc.TaskID
	cur     streamItem
	obs     learn.Observation
	last    retrieval.Result // most recent result, the observe target
	hasLast bool
	lastRq  casebase.Request
}

func (c *svcClient) prepare() {
	if len(c.holds) > heldPerClient {
		c.cur = streamItem{kind: opRelease}
		return
	}
	c.cur = c.s.next()
	c.items++
	if c.cur.kind == opObserve {
		if !c.hasLast {
			c.cur.kind = opRetrieve
		} else {
			c.obs = c.observation()
		}
	}
}

// observation reports the last result's variant as measured on the
// last request's attributes: the committed values, one of them
// drifted with probability driftShare.
func (c *svcClient) observation() learn.Observation {
	o := learn.Observation{Type: c.last.Type, Impl: c.last.Impl}
	cb := c.svc.CaseBase()
	ft, ok := cb.Type(o.Type)
	if !ok {
		return o
	}
	im, ok := ft.Impl(o.Impl)
	if !ok {
		return o
	}
	for _, k := range c.lastRq.Constraints {
		if v, ok := im.Attr(k.ID); ok {
			o.Measured = append(o.Measured, attr.Pair{ID: k.ID, Value: v})
		}
	}
	if len(o.Measured) > 0 && c.r.Float64() < driftShare {
		p := &o.Measured[c.r.Intn(len(o.Measured))]
		d, _ := cb.Registry().Lookup(p.ID)
		v := int(p.Value) + driftLSB*(2*c.r.Intn(2)-1)
		p.Value = attr.Value(min(max(v, int(d.Lo)), int(d.Hi)))
	}
	return o
}

// classify turns the typed refusals a service client may see into
// *errRefused; other errors pass through as violations.
func classify(err error) error {
	var nm *retrieval.ErrNoMatch
	var nf *qosalloc.ErrNoFeasible
	var se *serve.ErrStaleEpoch
	var ov *serve.ErrOverload
	switch {
	case err == nil:
		return nil
	case errors.As(err, &se), errors.As(err, &ov):
		return &errRefused{err: err, retry: true}
	case errors.As(err, &nm), errors.As(err, &nf):
		return &errRefused{err: err}
	}
	return err
}

func (c *svcClient) do() (opKind, int, error) {
	ctx := context.Background()
	it := c.cur
	switch it.kind {
	case opRelease:
		id := c.holds[0]
		c.holds = c.holds[1:]
		return opRelease, 0, c.svc.Release(id)
	case opAllocate:
		n, err := retrying(func() error {
			d, err := c.svc.Allocate(ctx, c.app, it.req, 1)
			if err == nil {
				c.holds = append(c.holds, d.Task.ID)
				c.last, c.hasLast, c.lastRq = retrieval.Result{Type: it.req.Type, Impl: d.Impl}, true, it.req
			}
			return classify(err)
		})
		return opAllocate, n, err
	case opObserve:
		n, err := retrying(func() error { return classify(c.svc.Observe(c.obs)) })
		return opObserve, n, err
	}
	n, err := retrying(func() error {
		r, err := c.svc.Retrieve(ctx, it.req)
		if err == nil {
			c.digest = hashResult(c.digest, c.items, r)
			c.last, c.hasLast, c.lastRq = r, true, it.req
		}
		return classify(err)
	})
	return opRetrieve, n, err
}

// inproc is a running in-process workload: the service under test and
// its closed-loop clients.
type inproc struct {
	name    string
	cb      *qosalloc.CaseBase
	svc     *qosalloc.Service
	gen     *uniqueGen
	seed    int64
	clients []*svcClient
}

// setupInproc builds the case base, platform and service of workload w,
// and its clients over the request generator gen.
func setupInproc(w string, gen *uniqueGen, seed int64, clients int) (*inproc, error) {
	cb, err := tableThree.caseBase()
	if err != nil {
		return nil, err
	}
	hot := w == "hot_mixed"
	rt, err := roomyPlatform(cb, clients)
	if err != nil {
		return nil, err
	}
	svc := qosalloc.NewService(cb, rt, qosdServiceOptions(hot)...)
	ip := &inproc{name: w, cb: cb, svc: svc, gen: gen, seed: seed}
	for c, s := range newStreams(w, gen, seed, clients) {
		ip.clients = append(ip.clients, &svcClient{
			app: fmt.Sprintf("app%d", c), svc: svc, s: s, digest: fnvOffset,
			r: rand.New(rand.NewSource(seed*15485863 + int64(c))),
		})
	}
	return ip, nil
}

func (ip *inproc) loopClients() []client {
	out := make([]client, len(ip.clients))
	for i, c := range ip.clients {
		out[i] = c
	}
	return out
}

// counts returns how many stream items each client consumed.
func (ip *inproc) counts() []int64 {
	out := make([]int64, len(ip.clients))
	for i, c := range ip.clients {
		out[i] = c.items
	}
	return out
}

// verifyUnique replays the clients' streams, re-walking every request
// on a frozen reference engine, and compares the result digests bit
// for bit. It returns the streams' repeat share.
func (ip *inproc) verifyUnique(streams []stream) (float64, error) {
	refs := make([]*retrieval.Engine, len(ip.clients))
	digests := make([]uint64, len(ip.clients))
	for c := range refs {
		refs[c] = retrieval.NewEngine(ip.cb, retrieval.Options{})
		digests[c] = fnvOffset
	}
	share, err := replay(streams, ip.counts(), func(c int, k int64, req casebase.Request) error {
		r, err := refs[c].Retrieve(req)
		if err != nil {
			return fmt.Errorf("reference walk %d of client %d: %w", k, c, err)
		}
		digests[c] = hashResult(digests[c], k, r)
		return nil
	})
	for c, cl := range ip.clients {
		if err == nil && digests[c] != cl.digest {
			err = fmt.Errorf("client %d: %d served results differ from the reference engine", c, cl.items)
		}
	}
	return share, err
}

// releaseAll releases every task the clients still hold and checks the
// runtime reports no live task.
func (ip *inproc) releaseAll() error {
	for _, c := range ip.clients {
		for _, id := range c.holds {
			if err := ip.svc.Release(id); err != nil {
				return fmt.Errorf("release task %d: %w", id, err)
			}
		}
		c.holds = nil
	}
	live := 0
	ip.svc.Exclusive(func() {
		for _, t := range ip.svc.System().Tasks() {
			if t.State != rtsys.Done {
				live++
			}
		}
	})
	if live != 0 {
		return fmt.Errorf("%d tasks still live after every hold was released", live)
	}
	return nil
}

// runInproc runs unique_retrieve or hot_mixed.
func runInproc(cfg config) (*report, error) {
	rep := newReport()
	cb, err := tableThree.caseBase()
	if err != nil {
		return rep, err
	}
	gen, err := newUniqueGen(cb, tableThree, cfg.seed)
	if err != nil {
		return rep, err
	}
	var ip *inproc
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC() // time each set-up from a collected heap
		t := time.Now()
		next, err := setupInproc(cfg.workload, gen, cfg.seed, cfg.clients)
		if err != nil {
			if ip != nil {
				ip.svc.Close()
			}
			return rep, err
		}
		times = append(times, time.Since(t))
		if ip != nil {
			ip.svc.Close()
		}
		ip = next
	}
	defer ip.svc.Close()
	rep.setSetup(times)
	counters := func() serveCounters { return svcCounters(ip.svc.Stats(), ip.svc.EpochStats()) }

	warm, timed, windows := phaseTimes(cfg)
	start := counters()
	clients, tcs := ip.loopClients(), []*tracedClient(nil)
	if cfg.trace {
		clients, tcs = traced(clients)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := runLoop(clients, warm, timed, windows)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rep, &violation{err}
	}
	// Peak RSS is read before the samples are merged and sorted.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return rep, err
	}
	rep.values["peak_rss_mb"] = rss
	rep.setLoop(ph)
	rep.values["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(ph.issued, 1))
	if cfg.trace {
		c := counters().minus(start)
		c.ops = ph.issued
		c.set(rep)
		rep.values["trace.overhead_frac"] = traceOverhead(ph)
		rep.note("%s", spanNote(tcs))
	}
	rep.note("%s", opsNote(rep.tally))

	if err := ip.releaseAll(); err != nil {
		return rep, &violation{err}
	}
	whole := counters().minus(start)
	streams := newStreams(ip.name, ip.gen, ip.seed, len(ip.clients))
	var share float64
	var verr error
	if ip.name == "unique_retrieve" {
		share, verr = ip.verifyUnique(streams)
	} else {
		share, _ = replay(streams, ip.counts(), nil)
	}
	hit := float64(whole.tokenHits) / float64(max(whole.enqueued, 1))
	rep.note("property: repeat_share=%.4f token_hit_ratio=%.4f dedup_hits=%d commits=%d",
		share, hit, whole.dedup, whole.commits)
	switch ip.name {
	case "unique_retrieve":
		if share != 0 || whole.tokenHits != 0 || whole.dedup != 0 {
			return rep, violated("unique_retrieve repeated or hit: repeat_share=%v token_hits=%d dedup_hits=%d",
				share, whole.tokenHits, whole.dedup)
		}
		if rep.failed != 0 || rep.refused != 0 {
			return rep, violated("unique_retrieve refused %d ops (%d failed)", rep.refused, rep.failed)
		}
		if verr != nil {
			return rep, &violation{verr}
		}
		var n int64
		for _, c := range ip.clients {
			n += c.items
		}
		rep.note("check: %d served results bit-identical to the reference engine", n)
	case "hot_mixed":
		if whole.commits == 0 || whole.tokenHits == 0 || share < 0.8 {
			return rep, violated("hot_mixed stopped exercising its mechanisms: commits=%d token_hits=%d repeat_share=%v",
				whole.commits, whole.tokenHits, share)
		}
	}
	rep.note("check: every hold released, 0 live tasks")

	if cfg.trace {
		return rep, runLadder(cfg, rep, ip.cb, ladderSample(newStreams(ip.name, ip.gen, ip.seed, len(ip.clients)), ladderRequests), nil)
	}
	return rep, nil
}

// ladderSample takes n requests from the streams, round robin, in the
// order the clients issued them.
func ladderSample(streams []stream, n int) []casebase.Request {
	out := make([]casebase.Request, 0, n)
	for len(out) < n {
		for _, s := range streams {
			if len(out) < n {
				out = append(out, s.next().req)
			}
		}
	}
	return out
}
