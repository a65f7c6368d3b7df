// Selflearning demonstrates the paper's §5 outlook — "dynamic update
// mechanisms of Case-Base-data structures and function repositories at
// run-time enabling for a self-learning system" — end to end through the
// public API: an implementation's real QoS degrades below its
// advertisement, run-time observations revise the case base, a new
// variant is retained from a repository update, and the service commits
// each change as a new epoch while it keeps serving (the commit empties
// the bypass-token caches).
package main

import (
	"context"
	"fmt"
	"log"

	"qosalloc"
)

func main() {
	cb, err := qosalloc.PaperCaseBase()
	if err != nil {
		log.Fatal(err)
	}
	repo := qosalloc.NewRepository(20)
	if err := repo.PopulateFromCaseBase(cb); err != nil {
		log.Fatal(err)
	}
	rt := qosalloc.NewRuntime(repo,
		qosalloc.NewFPGADevice("fpga0", []qosalloc.FPGASlot{
			{Slices: 1500, BRAMs: 8, Multipliers: 16},
		}, 66),
		qosalloc.NewProcessorDevice("dsp0", qosalloc.TargetDSP, 1000, 192<<10),
		qosalloc.NewProcessorDevice("gpp0", qosalloc.TargetGPP, 1000, 256<<10),
	)
	// EWMA weight 0.6 per observation; commits happen only where this
	// driver calls CommitNow or Retain (the fold threshold of 64 pending
	// revisions is never reached, and no age bound is set).
	svc := qosalloc.NewService(cb, rt,
		qosalloc.WithBypassTokens(true),
		qosalloc.WithLearning(0.6, 64, 0))
	defer svc.Close()
	ctx := context.Background()
	req := qosalloc.PaperRequest()

	// 1. Normal operation: the DSP equalizer wins (Table 1).
	d, err := svc.Allocate(ctx, "mp3", req, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before learning: impl %d on %s (S=%.2f)\n", d.Impl, d.Device, d.Similarity)
	if err := svc.Release(d.Task.ID); err != nil {
		log.Fatal(err)
	}

	// 2. Monitors keep observing that the DSP variant only sustains
	// 20 kS/s instead of the advertised 44 — the revise step.
	for i := 0; i < 8; i++ {
		if err := svc.Observe(qosalloc.Observation{
			Type: 1, Impl: 2,
			Measured: []qosalloc.AttrPair{{ID: 4, Value: 20}}, // sample-rate
		}); err != nil {
			log.Fatal(err)
		}
	}
	epoch, err := svc.CommitNow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revision committed: epoch %d, %d observations folded\n",
		epoch, svc.EpochStats().FoldedObs)

	// 3. Meanwhile a new, better DSP build lands in the repository —
	// the retain step. Retain registers its configuration blob and
	// commits the next epoch.
	newID, err := svc.Retain(1, qosalloc.Implementation{
		Name: "fir-eq-dsp-v2", Target: qosalloc.TargetDSP,
		Attrs: []qosalloc.AttrPair{
			{ID: 1, Value: 16}, // bitwidth
			{ID: 3, Value: 1},  // stereo
			{ID: 4, Value: 40}, // exactly the requested rate
		},
		Foot: qosalloc.Footprint{CPULoad: 420, MemBytes: 24 << 10, PowerMW: 210, ConfigBytes: 20 << 10},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retained new variant: impl %d (epoch %d)\n", newID, svc.Epoch())

	// 4. The same request now retrieves the revised tree: the degraded
	// DSP variant lost its lead and the freshly retained v2 wins.
	d2, err := svc.Allocate(ctx, "mp3", req, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after learning:  impl %d on %s (S=%.2f, via token: %v)\n",
		d2.Impl, d2.Device, d2.Similarity, d2.ViaToken)
	if d2.Impl != newID {
		log.Fatalf("expected the retained variant %d to win", newID)
	}
}
