package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/wire"
)

// daemonArgs configures qosd for the benchmark: the Table 3 shape, the
// lockstep admission clock, and admission limits far above what
// nproc closed-loop clients can offer, so nothing is rate limited or
// shed.
func daemonArgs() []string {
	sh := tableThree
	return []string{
		"-types", strconv.Itoa(sh.Types), "-impls", strconv.Itoa(sh.Impls),
		"-attrs", strconv.Itoa(sh.Attrs), "-universe", strconv.Itoa(sh.Universe),
		"-cb-seed", strconv.FormatInt(sh.CBSeed, 10),
		"-lockstep",
		"-rate", "100000000", "-burst", "100000000",
		"-max-queue", "4096",
	}
}

// loopAllocate is the share of qosd_loopback stream items that allocate
// (the rest retrieve); every placed task is released by the client's
// next op.
const loopAllocate = 0.2

// simStep is how far each request moves the lockstep clock (sim µs).
const simStep = 100

// httpClient gives one closed-loop caller a single keep-alive
// connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// body returns the JSON request the loopback client sends for req.
func body(client string, req casebase.Request) wire.AllocRequest {
	b := wire.AllocRequest{Client: client, Type: uint16(req.Type), App: client, Priority: 1}
	for _, c := range req.Constraints {
		b.Constraints = append(b.Constraints, wire.ConstraintJSON{ID: uint16(c.ID), Value: uint16(c.Value)})
	}
	return b
}

// served is one retrieve answer kept for the post-run reference check.
type served struct {
	k          int64
	impl       uint16
	similarity float64
	refused    bool
}

// httpCaller issues requests at the daemon, stamping the shared
// lockstep clock.
type httpCaller struct {
	hc    *http.Client
	d     *daemon
	clock *atomic.Uint64
}

// post sends one JSON request and decodes a 200 answer into out. A
// non-200 answer with an expected code becomes an *errRefused; any
// other answer is a violation.
func (h *httpCaller) post(path string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequest(http.MethodPost, h.d.url(path), bytes.NewReader(raw))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-QoS-Now", strconv.FormatUint(h.clock.Add(simStep), 10))
	resp, err := h.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusOK {
		return json.Unmarshal(b, out)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(b, &e); err != nil {
		return fmt.Errorf("%s: HTTP %d with undecodable body %q", path, resp.StatusCode, b)
	}
	refusal := fmt.Errorf("%s: %s: %s", path, e.Code, e.Error)
	switch e.Code {
	case wire.CodeNoMatch, wire.CodeNoFeasible:
		return &errRefused{err: refusal}
	case wire.CodeStaleEpoch, wire.CodeOverload, wire.CodeRateLimited:
		return &errRefused{err: refusal, retry: true}
	}
	return fmt.Errorf("%s: HTTP %d %s: %s", path, resp.StatusCode, e.Code, e.Error)
}

// loopClient is one closed-loop qosd caller.
type loopClient struct {
	httpCaller
	name  string
	gen   *uniqueGen
	uniq  uniqueStream
	r     *rand.Rand
	items int64
	held  int // task to release next op, 0 if none
	cur   streamItem
	out   []served
}

func newLoopClient(d *daemon, clock *atomic.Uint64, gen *uniqueGen, seed int64, c, n int) *loopClient {
	return &loopClient{
		httpCaller: httpCaller{hc: httpClient(), d: d, clock: clock},
		name:       fmt.Sprintf("bench%d", c),
		gen:        gen,
		uniq:       uniqueStream{gen: gen, k: uint64(c), step: uint64(n)},
		r:          rand.New(rand.NewSource(seed*104729 + int64(c))),
	}
}

// next draws the client's k-th stream item; the sequence does not
// depend on the daemon's answers.
func (c *loopClient) next() streamItem {
	it := c.uniq.next()
	if c.r.Float64() < loopAllocate {
		it.kind = opAllocate
	}
	return it
}

func (c *loopClient) prepare() {
	if c.held != 0 {
		c.cur = streamItem{kind: opRelease}
		return
	}
	c.cur = c.next()
	c.items++
}

func (c *loopClient) do() (opKind, int, error) {
	switch c.cur.kind {
	case opRelease:
		var out map[string]any
		err := c.post("/v1/release", wire.ReleaseRequest{Client: c.name, Task: c.held}, &out)
		c.held = 0
		return opRelease, 0, err
	case opAllocate:
		n, err := retrying(func() error {
			var out wire.AllocResponse
			err := c.post("/v1/allocate", body(c.name, c.cur.req), &out)
			if err == nil {
				c.held = out.Task
			}
			return err
		})
		return opAllocate, n, err
	}
	n, err := retrying(func() error {
		var out wire.RetrieveResponse
		err := c.post("/v1/retrieve", body(c.name, c.cur.req), &out)
		if err == nil {
			c.out = append(c.out, served{k: c.items, impl: out.Impl, similarity: out.Similarity})
		}
		return err
	})
	if err != nil {
		c.out = append(c.out, served{k: c.items, refused: true})
	}
	return opRetrieve, n, err
}

// releaseHeld releases the task the client still holds, if any.
func (c *loopClient) releaseHeld() error {
	if c.held == 0 {
		return nil
	}
	c.cur = streamItem{kind: opRelease}
	_, _, err := c.do()
	return err
}

// verify replays the client's stream and checks every retrieve answer
// against a frozen reference engine walk of the request as the daemon
// decodes it.
func (c *loopClient) verify(cb *casebase.CaseBase, seed int64, idx, n int) error {
	ref := retrieval.NewEngine(cb, retrieval.Options{})
	fresh := newLoopClient(c.d, nil, c.gen, seed, idx, n)
	j := 0
	for k := int64(1); k <= c.items; k++ {
		it := fresh.next()
		if it.kind != opRetrieve {
			continue
		}
		if j >= len(c.out) || c.out[j].k != k {
			return fmt.Errorf("%s: retrieve %d has no recorded answer", c.name, k)
		}
		b := body(c.name, it.req)
		r, err := ref.Retrieve(b.Request())
		if err != nil {
			return fmt.Errorf("%s: reference walk %d: %w", c.name, k, err)
		}
		got := c.out[j]
		j++
		if got.refused {
			continue
		}
		if uint16(r.Impl) != got.impl || math.Float64bits(r.Similarity) != math.Float64bits(got.similarity) {
			return fmt.Errorf("%s: retrieve %d answered impl %d sim %v, reference impl %d sim %v",
				c.name, k, got.impl, got.similarity, r.Impl, r.Similarity)
		}
	}
	if j != len(c.out) {
		return fmt.Errorf("%s: %d answers recorded for %d retrieves", c.name, len(c.out), j)
	}
	return nil
}

// promCounters reads the serve counters from a /metrics scrape.
func promCounters(m map[string]float64) serveCounters {
	var commits float64
	for k, v := range m {
		if strings.HasPrefix(k, "qos_serve_commits_total{") {
			commits += v
		}
	}
	i := func(k string) int64 { return int64(m[k]) }
	return serveCounters{
		walks: i("qos_retrieval_total"), enqueued: i("qos_serve_enqueued_total"),
		tokenHits: i("qos_serve_token_hits_total"), dedup: i("qos_serve_dedup_hits_total"),
		batches: i("qos_serve_batches_total"), batchedJobs: i("qos_serve_batch_size_sum"),
		shed: i("qos_serve_shed_total"), allocFails: i(`qos_serve_allocations_total{outcome="failed"}`),
		commits: int64(commits), staleRetries: i("qos_serve_stale_retries_total"),
	}
}

func admitRejected(m map[string]float64) int64 {
	return int64(m["qos_admit_rate_limited_total"] + m["qos_admit_breaker_rejected_total"])
}

// runLoopback runs qosd_loopback.
func runLoopback(cfg config) (*report, error) {
	rep := newReport()
	cb, err := tableThree.caseBase()
	if err != nil {
		return rep, err
	}
	gen, err := newUniqueGen(cb, tableThree, cfg.seed)
	if err != nil {
		return rep, err
	}
	var d *daemon
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		next, err := startDaemon(cfg.qosd, daemonArgs())
		if err != nil {
			if d != nil {
				d.kill()
			}
			return rep, err
		}
		times = append(times, time.Since(t))
		if d != nil {
			if err := d.stop(); err != nil {
				next.kill()
				return rep, &violation{err}
			}
		}
		d = next
	}
	defer d.kill()
	rep.setSetup(times)

	var clock atomic.Uint64
	cls := make([]*loopClient, cfg.clients)
	clients := make([]client, cfg.clients)
	for c := range cls {
		cls[c] = newLoopClient(d, &clock, gen, cfg.seed, c, cfg.clients)
		clients[c] = cls[c]
	}
	scrape := httpClient()
	metrics := func() (map[string]float64, error) {
		m, err := promValues(scrape, d)
		if err != nil {
			return nil, d.failure(fmt.Errorf("scrape /metrics: %w", err))
		}
		return m, nil
	}
	m0, err := metrics()
	if err != nil {
		return rep, err
	}

	warm, timed, windows := phaseTimes(cfg)
	var tcs []*tracedClient
	if cfg.trace {
		clients, tcs = traced(clients)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := runLoop(clients, warm, timed, windows)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return rep, &violation{d.failure(err)}
	}
	rep.setLoop(ph)
	rep.values["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(ph.issued, 1))
	if cfg.trace {
		end, err := metrics()
		if err != nil {
			return rep, err
		}
		c := promCounters(end).minus(promCounters(m0))
		c.ops = ph.issued
		c.set(rep)
		rep.values["admit.rejected"] = float64(admitRejected(end) - admitRejected(m0))
		rep.values["trace.overhead_frac"] = traceOverhead(ph)
		rep.note("%s", spanNote(tcs))
	}
	rep.note("%s", opsNote(rep.tally))

	for _, c := range cls {
		if err := c.releaseHeld(); err != nil {
			return rep, &violation{d.failure(err)}
		}
	}
	m1, err := metrics()
	if err != nil {
		return rep, err
	}
	if n := liveTasks(m1); n != 0 {
		return rep, violated("qosd reports %d live tasks after every hold was released", n)
	}
	fresh := make([]stream, len(cls))
	counts := make([]int64, len(cls))
	for c, cl := range cls {
		fresh[c] = newLoopClient(d, nil, gen, cfg.seed, c, len(cls))
		counts[c] = cl.items
	}
	whole := promCounters(m1).minus(promCounters(m0))
	share, _ := replay(fresh, counts, nil)
	rep.note("property: repeat_share=%.4f token_hit_ratio=%.4f dedup_hits=%d commits=%d",
		share, float64(whole.tokenHits)/float64(max(whole.enqueued, 1)), whole.dedup, whole.commits)
	var answers int
	for c, cl := range cls {
		if err := cl.verify(cb, cfg.seed, c, len(cls)); err != nil {
			return rep, &violation{err}
		}
		answers += len(cl.out)
	}
	rep.note("check: %d retrieve answers bit-identical to the reference engine; 0 live tasks", answers)

	if cfg.trace {
		for c := range fresh {
			fresh[c] = newLoopClient(d, nil, gen, cfg.seed, c, len(cls))
		}
		if err := runLadder(cfg, rep, cb, ladderSample(fresh, ladderRequests), &httpCaller{hc: scrape, d: d, clock: &clock}); err != nil {
			return rep, err
		}
	}
	// Peak RSS is read last, so the daemon's figure covers every phase.
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return rep, err
	}
	rep.values["peak_rss_mb"] = rss
	if err := d.stop(); err != nil {
		return rep, &violation{err}
	}
	rep.note("check: qosd drained on SIGTERM with exit status 0")
	return rep, nil
}
