package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// opKind names the operations a workload issues.
type opKind uint8

const (
	opRetrieve opKind = iota
	opAllocate
	opRelease
	opObserve
	numOpKinds
)

var opNames = [numOpKinds]string{"retrieve", "allocate", "release", "observe"}

// errRefused wraps an expected, typed refusal (no match, no feasible
// placement, stale epoch, overload, rate limit). Anything a client
// returns that is not an errRefused is a correctness violation and
// aborts the run.
type errRefused struct {
	err   error
	retry bool // the refusal carries a retry hint
}

func (e *errRefused) Error() string { return "refused: " + e.err.Error() }
func (e *errRefused) Unwrap() error { return e.err }

// maxRefusals bounds how often a client re-issues an op that was
// refused with a retryable hint before the op counts as failed.
const maxRefusals = 16

// retrying issues call until it succeeds, fails with anything but a
// retryable refusal, or was refused maxRefusals times. It returns the
// number of refusals retried through.
func retrying(call func() error) (int, error) {
	for n := 0; ; n++ {
		err := call()
		var rf *errRefused
		if err == nil || !errors.As(err, &rf) || !rf.retry || n == maxRefusals {
			return n, err
		}
	}
}

// client is one closed-loop caller. prepare builds the next op's input
// outside the timed interval; do issues it at the workload boundary
// and returns the op kind, how many refusals it retried through, and
// the final error (nil, an *errRefused, or a violation).
type client interface {
	prepare()
	do() (kind opKind, refusals int, err error)
}

// clocked is implemented by clients that need their phase's window
// clock, such as a tracer that records spans only in some windows.
type clocked interface{ setClock(r *recorder) }

// tally counts one phase's ops.
type tally struct {
	issued                     int64 // ops issued, warm-up included
	attempted, failed, refused int64 // ops started in the timed interval
	byKind                     [numOpKinds]int64
}

func (t *tally) add(o tally) {
	t.issued += o.issued
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	for i := range t.byKind {
		t.byKind[i] += o.byKind[i]
	}
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	tally
	recs []*recorder
}

// runLoop drives clients in a closed loop: each issues its next op only
// after the previous one returned. Ops during the first warm interval
// are issued but not counted; the timed interval that follows is split
// into windows. The first violation (or a panic in a client) stops
// every client and is returned.
func runLoop(clients []client, warm, timed time.Duration, windows int) (phase, error) {
	start := time.Now()
	t0 := start.Add(warm)
	end := t0.Add(timed)
	window := timed / time.Duration(windows)
	recs := make([]*recorder, len(clients))
	tallies := make([]tally, len(clients))
	var stop atomic.Bool
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for i, cl := range clients {
		recs[i] = newRecorder(t0, window, windows)
		if c, ok := cl.(clocked); ok {
			c.setClock(recs[i])
		}
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fail(fmt.Errorf("client %d panicked: %v", i, p))
				}
			}()
			rec, tl := recs[i], &tallies[i]
			for !stop.Load() && time.Now().Before(end) {
				cl.prepare()
				s := time.Now()
				kind, refusals, err := cl.do()
				d := time.Since(s)
				var rf *errRefused
				if err != nil && !errors.As(err, &rf) {
					fail(fmt.Errorf("client %d %s: %w", i, opNames[kind], err))
					return
				}
				tl.issued++
				if s.Before(t0) {
					continue
				}
				rec.add(s, d)
				tl.attempted++
				tl.byKind[kind]++
				tl.refused += int64(refusals)
				if err != nil {
					tl.failed++
				}
			}
		}(i, cl)
	}
	wg.Wait()
	ph := phase{recs: recs}
	for _, t := range tallies {
		ph.tally.add(t)
	}
	return ph, firstErr
}
