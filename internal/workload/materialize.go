package workload

import (
	"fmt"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
)

// MaterializeSpec generates a custom-spec trace and stamps measured
// timestamps, like MaterializeColumns does for built-in applications.
func MaterializeSpec(s *Spec, p Params) (*trace.Columns, error) {
	c, err := FromSpec(s, p)
	if err != nil {
		return nil, err
	}
	if err := Stamp(c, p, Limits{}); err != nil {
		return nil, err
	}
	return c, nil
}

// Limits bound a ground-truth materialization: a wall-clock deadline,
// a DES event cap, and a cancellation channel (closed = stop now via
// the engine's Stop path). Zero values mean unlimited. A blown budget
// fails with an error wrapping des.ErrBudgetExceeded, so a campaign can
// classify the trace as a runaway instead of hanging.
type Limits struct {
	Deadline  time.Time
	MaxEvents uint64
	Cancel    <-chan struct{}
}

// MaterializeColumns generates the program for p and stamps "measured"
// timestamps into it by executing it on p.Machine's detailed
// packet-flow contention simulator with the default system-noise
// model. The result plays the role of a DUMPI trace collected on the
// real machine: its times embed contention and noise that prediction
// replays do not reproduce.
func MaterializeColumns(p Params) (*trace.Columns, error) {
	return MaterializeColumnsLimits(p, Limits{})
}

// MaterializeColumnsLimits is MaterializeColumns under the full set of
// run bounds, including cancellation.
func MaterializeColumnsLimits(p Params, lim Limits) (*trace.Columns, error) {
	c, err := GenerateColumns(p)
	if err != nil {
		return nil, err
	}
	if err := Stamp(c, p, lim); err != nil {
		return nil, err
	}
	return c, nil
}

// Stamp executes the program src on p's machine's detailed simulator
// with noise and writes the measured timestamps back into src. The
// ground-truth replay and its write-back run through the Source path,
// so any representation stamps bit-identically.
//
// Params.Noise perturbs only this execution: a non-zero configuration
// jitters the machine's per-link bandwidths, slows heterogeneous
// nodes, and scales the OS-noise model, all seeded — the prediction
// replays still run on the nominal machine, so the variability ends up
// embedded in the "measured" times exactly as it would in a real
// collection. A zero Noise takes the identical code path and floats as
// before the field existed (TestZeroNoiseGroundTruthUnchanged).
func Stamp(src trace.Source, p Params, lim Limits) error {
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	if err != nil {
		return err
	}
	perturb := mpisim.DefaultNoise(p.Seed, p.Ranks)
	if !p.Noise.IsZero() {
		mach.ApplyVariability(machine.Variability{
			LinkJitter: p.Noise.LinkJitter,
			NodeHetero: p.Noise.NodeHetero,
			Seed:       noiseSeed(p),
		})
		perturb = mpisim.VariabilityNoise(noiseSeed(p), p.Ranks, p.Noise.OSNoise, mach.RankSpeeds())
	}
	meta := src.TraceMeta()
	if meta.RanksPerNode == 0 {
		// Record the machine's actual placement density so the RN/N
		// features reflect the collection configuration.
		meta.RanksPerNode = mach.RanksPerNode
	}
	_, err = mpisim.ReplaySource(src, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{
		Record:    true,
		Perturb:   perturb,
		Deadline:  lim.Deadline,
		MaxEvents: lim.MaxEvents,
		Cancel:    lim.Cancel,
	})
	if err != nil {
		return fmt.Errorf("workload: ground-truth execution of %s: %w", meta.ID(), err)
	}
	return nil
}

// noiseSeed isolates the platform-variability draws: the trace seed
// keeps distinct traces on independent streams, and Noise.Seed lets a
// sweep resample one trace's platform at the same amplitudes.
func noiseSeed(p Params) int64 {
	return p.Seed ^ (p.Noise.Seed+1)*-0x61c8864680b583eb // golden-ratio odd constant
}
