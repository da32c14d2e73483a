package main

import (
	"fmt"
	"time"

	"haccs/internal/core"
	"haccs/internal/dataset"
	"haccs/internal/experiments"
	"haccs/internal/fl"
	"haccs/internal/metrics"
	"haccs/internal/nn"
	"haccs/internal/stats"
)

// sim-paper: the §V-A standard workload — 50 clients with one majority
// label each, synthetic CIFAR at 16×16, LeNet(4,8), HACCS P(y) over
// dense OPTICS, k=10, two local epochs, evaluation every fifth round.
const (
	simClients   = 50
	simClasses   = 10
	simK         = 10
	simEvalEvery = 5
	simTarget    = 0.35
	// simRounds is the fixed trajectory every run trains; the gate
	// requires the target accuracy within it.
	simRounds = 35
)

type simSystem struct {
	eng     *fl.Engine
	sched   *schedProbe
	rec     *recorder
	history []fl.Point
}

// simRoster seeds the roster — partition, images and device profiles —
// so every run trains the same §V-A clients on the same data. The run
// seed drives the model initialisation, the batch order and the
// selection stream.
const simRoster = 0

func buildSim(e env) (system, error) {
	spec := dataset.SyntheticCIFAR().Compact(16, 16)
	spec.Classes = simClasses
	plan := dataset.MajorityNoisePlan(simClients, simClasses, 300, 800, stats.NewRNG(stats.DeriveSeed(simRoster, 1)))
	arch := nn.Arch{Kind: "lenet", Channels: spec.Channels, Height: spec.Height, Width: spec.Width,
		Classes: spec.Classes, ConvFilters: [2]int{4, 8}}
	w := experiments.BuildWorkload(spec, plan, arch, simRoster)
	sched := &schedProbe{Scheduler: experiments.HACCSOnly(w, core.PY, 0, 0.75, e.seed), rec: e.rec}
	ec := experiments.EngineConfig{
		ClientsPerRound: simK,
		MaxRounds:       1 << 30, // rounds are driven one at a time below
		EvalEvery:       simEvalEvery,
		Local:           fl.LocalTrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05},
		PerSampleSec:    0.01,
	}
	cfg := ec.ToFL(w, e.seed)
	cfg.Spans = e.rec.spanTracer()
	return &simSystem{eng: fl.NewEngine(cfg, w.Clients, sched), sched: sched, rec: e.rec}, nil
}

func (s *simSystem) round(r int) (roundStats, error) {
	out := s.eng.RunRound(r)
	if (r+1)%simEvalEvery == 0 {
		start := time.Now()
		acc, loss, _ := s.eng.Evaluate()
		s.rec.record("fl.eval", r, -1, start)
		s.history = append(s.history, fl.Point{Round: r + 1, Time: s.eng.Clock(), Acc: acc, Loss: loss})
	}
	return syncStats(out.Selected, out.Reporters, out.Failed, out.Cut)
}

// syncStats checks a barrier round: every selected client must have
// been aggregated.
func syncStats(selected, reporters, failed, cut []int) (roundStats, error) {
	st := roundStats{dispatched: len(selected), aggregated: len(reporters), failed: len(failed)}
	if len(selected) == 0 || len(reporters) != len(selected) {
		return st, fmt.Errorf("aggregated %d of %d selected clients (%d failed, %d cut)",
			len(reporters), len(selected), len(failed), len(cut))
	}
	return st, nil
}

func (s *simSystem) params() []float64 { return s.eng.Runner().Global() }

func (s *simSystem) finish() (quality, error) {
	fmt.Print("accuracy:")
	for _, p := range s.history {
		fmt.Printf(" r%d=%.3f", p.Round, p.Acc)
	}
	fmt.Println()
	// The evaluations after rounds 5, 10, ..., simRounds.
	fixed := s.history[:simRounds/simEvalEvery]
	q := quality{clusters: s.sched.NumClusters(), finalAcc: fixed[len(fixed)-1].Acc}
	tta, ok := metrics.TTA(fixed, simTarget)
	if !ok {
		return q, fmt.Errorf("accuracy %.3f never reached the %.2f target within %d rounds", q.finalAcc, simTarget, simRounds)
	}
	q.virtualTTA = tta
	return q, nil
}

func (s *simSystem) close() error { return nil }
