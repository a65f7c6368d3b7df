package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync/atomic"
	"time"

	"qosalloc"
	"qosalloc/internal/admit"
	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/device"
	"qosalloc/internal/learn"
	"qosalloc/internal/retrieval"
	"qosalloc/internal/wire"
)

// commitEvery is how many ladder observations go between two timed
// CommitNow calls.
const commitEvery = 16

// timed runs fn and returns its duration in µs.
func timed(fn func()) float64 {
	s := time.Now()
	fn()
	return usOf(time.Since(s))
}

// sameResult reports whether two retrievals agree bit for bit.
func sameResult(a, b retrieval.Result) bool {
	return a.Type == b.Type && a.Impl == b.Impl && math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity)
}

// runLadder replays reqs serially through each layer's public
// functions, one rung at a time, and records the per-layer medians.
// Every rung sees the same requests in the same order, so per-request
// differences between rungs are meaningful: serve self time is the
// facade call minus the kernel walk of the same request, and qosd self
// time is the round trip minus decode, admission, the facade call and
// encode of the same request. qosd, when nil, is a daemon booted for
// the ladder and drained afterwards.
func runLadder(cfg config, rep *report, cb *casebase.CaseBase, reqs []casebase.Request, qosd *httpCaller) error {
	n := len(reqs)
	ctx := context.Background()
	walk, walkN, call, self := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	best := make([]retrieval.Result, n)

	// retrieval: the frozen reference kernel.
	eng := retrieval.NewEngine(cb, retrieval.Options{})
	for i, req := range reqs {
		var err error
		walk[i] = timed(func() { best[i], err = eng.Retrieve(req) })
		if err != nil {
			return violated("ladder walk %d: %v", i, err)
		}
	}
	for i, req := range reqs {
		var err error
		walkN[i] = timed(func() { _, err = eng.RetrieveN(req, 3) })
		if err != nil {
			return violated("ladder N-best walk %d: %v", i, err)
		}
	}

	// serve: the facade with qosd's options on qosd's platform.
	rt, err := newPlatform(cb, 3, 2000)
	if err != nil {
		return err
	}
	svc := qosalloc.NewService(cb, rt, qosdServiceOptions(false)...)
	defer svc.Close()
	for i, req := range reqs {
		var r retrieval.Result
		call[i] = timed(func() { r, err = svc.Retrieve(ctx, req) })
		if err != nil || !sameResult(r, best[i]) {
			return violated("ladder serve %d: got %+v (%v), reference %+v", i, r, err, best[i])
		}
		self[i] = call[i] - walk[i]
	}

	// alloc: placement and release on a harness-owned platform, fed the
	// kernel's N-best candidates for the same requests.
	rtA, err := roomyPlatform(cb, 1)
	if err != nil {
		return err
	}
	mgr := qosalloc.NewAllocationManager(cb, rtA, qosalloc.WithThreshold(0), qosalloc.WithPreemption(true))
	var place, release []float64
	refused := 0
	for _, req := range reqs {
		cands, err := eng.RetrieveN(req, 3)
		if err != nil {
			return violated("ladder candidates: %v", err)
		}
		var d *qosalloc.Decision
		place = append(place, timed(func() { d, err = mgr.PlaceCandidates("bench0", req, cands, 1) }))
		if err != nil {
			if _, ok := classify(err).(*errRefused); !ok {
				return violated("ladder place: %v", err)
			}
			refused++
			continue
		}
		release = append(release, timed(func() { err = mgr.Release(d.Task.ID) }))
		if err != nil {
			return violated("ladder release: %v", err)
		}
	}
	if len(release) == 0 {
		return violated("ladder placed nothing (%d refused)", refused)
	}

	// learn: observations of each request's best variant, with a
	// manual commit every commitEvery observations.
	rtL, err := roomyPlatform(cb, 1)
	if err != nil {
		return err
	}
	svcL := qosalloc.NewService(cb, rtL, qosdServiceOptions(true)...)
	defer svcL.Close()
	var observe, commit []float64
	for i, req := range reqs {
		o := learn.Observation{Type: best[i].Type, Impl: best[i].Impl}
		for _, c := range req.Constraints {
			o.Measured = append(o.Measured, attr.Pair{ID: c.ID, Value: c.Value})
		}
		observe = append(observe, timed(func() { err = svcL.Observe(o) }))
		if err != nil {
			return violated("ladder observe: %v", err)
		}
		if (i+1)%commitEvery == 0 {
			commit = append(commit, timed(func() { _, err = svcL.CommitNow() }))
			if err != nil {
				return violated("ladder commit: %v", err)
			}
		}
	}

	// wire: strict decode plus semantic validation of the exact bodies
	// the loopback client sends, and the encode of the answer.
	decode, encode := make([]float64, n), make([]float64, n)
	var buf bytes.Buffer
	for i, req := range reqs {
		raw, err := json.Marshal(body("bench0", req))
		if err != nil {
			return err
		}
		decode[i] = timed(func() {
			var ar *wire.AllocRequest
			if ar, err = wire.DecodeAllocRequest(bytes.NewReader(raw)); err == nil {
				err = ar.Request().Validate(cb)
			}
		})
		if err != nil {
			return violated("ladder decode: %v", err)
		}
		r := best[i]
		buf.Reset()
		encode[i] = timed(func() {
			err = json.NewEncoder(&buf).Encode(wire.RetrieveResponse{
				Type: uint16(r.Type), Impl: uint16(r.Impl),
				Target: r.Target.String(), Name: r.Name, Similarity: r.Similarity,
			})
		})
		if err != nil {
			return err
		}
	}

	// admit: the gate with the limits the loopback daemon runs with.
	gate := admit.NewGate(admit.GateConfig{
		Shards:  4,
		Limiter: admit.LimiterConfig{RatePerSec: 100_000_000, Burst: 100_000_000},
	}, nil)
	admitUS := make([]float64, n)
	rejected := 0
	for i, req := range reqs {
		now := device.Micros((i + 1) * simStep)
		admitUS[i] = timed(func() {
			sh := gate.Shard(req.Type)
			if err = gate.Admit("bench0", sh, now); err == nil {
				gate.Record(sh, now, false)
			}
		})
		if err != nil {
			rejected++
		}
	}

	// qosd: serial round trips of the same requests over loopback.
	var booted *daemon
	if qosd == nil {
		if booted, err = startDaemon(cfg.qosd, daemonArgs()); err != nil {
			return err
		}
		defer booted.kill()
		qosd = &httpCaller{hc: httpClient(), d: booted, clock: new(atomic.Uint64)}
	}
	rttSelf := make([]float64, n)
	for i, req := range reqs {
		var out wire.RetrieveResponse
		rtt := timed(func() { err = qosd.post("/v1/retrieve", body("bench0", req), &out) })
		if err != nil {
			return violated("ladder round trip %d: %v", i, qosd.d.failure(err))
		}
		if out.Impl != uint16(best[i].Impl) || math.Float64bits(out.Similarity) != math.Float64bits(best[i].Similarity) {
			return violated("ladder round trip %d answered impl %d sim %v, reference %+v", i, out.Impl, out.Similarity, best[i])
		}
		rttSelf[i] = rtt - decode[i] - admitUS[i] - call[i] - encode[i]
	}
	if booted != nil {
		if err := booted.stop(); err != nil {
			return &violation{err}
		}
	}

	set := func(name string, xs []float64) {
		rep.values[name] = median(xs)
		rep.samples[name] = len(xs)
	}
	set("retrieval.walk_us_p50", walk)
	set("retrieval.walkn_us_p50", walkN)
	set("serve.call_us_p50", call)
	set("serve.self_us_p50", self)
	set("alloc.place_us_p50", place)
	set("alloc.release_us_p50", release)
	set("learn.observe_us_p50", observe)
	set("learn.commit_us_p50", commit)
	set("wire.decode_us_p50", decode)
	set("wire.encode_us_p50", encode)
	set("admit.admit_us_p50", admitUS)
	set("qosd.rtt_self_us_p50", rttSelf)
	if _, ok := rep.values["admit.rejected"]; !ok {
		rep.values["admit.rejected"] = float64(rejected)
	}
	rep.note("ladder: %d requests replayed serially through every rung (%d placements refused)", n, refused)
	return nil
}
