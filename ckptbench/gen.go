package main

import (
	"repro/internal/core"
	"repro/internal/grad"
	"repro/internal/optimizer"
	"repro/internal/rng"
)

// Training-state generator. Workloads checkpoint the state of a synthetic
// hybrid training run built from the program's own domain objects — a real
// Adam optimizer, a real parameter-shift gradient accumulator and a real
// RNG stream set — without the statevector simulator, whose cost says
// nothing about checkpointing. Each of the P parameters has two
// parameter-shift work units (+π/2 and −π/2). A unit's "measured" value is
// ±θ_p plus shot noise drawn from the Shots stream, so the gradient
// 0.5·(v₊ − v₋) is θ_p plus noise and Adam descends the quadratic loss
// mean(θ²): every step moves every parameter and both moment vectors.
// The warm-up runs the descent into its shot-noise floor before the first
// save, so the bytes a step changes have the same statistics at the start
// of a run as at its end, however many steps the run takes.
//
// The generator owns every buffer the state points into and reuses them;
// per op it allocates only the three blobs the trainer's Capture also
// allocates (optimizer, RNG set and accumulator MarshalBinary). Nothing
// here runs inside a timed region.

const (
	shotsPerUnit  = 1000
	unitClockNS   = 250_000 // modeled QPU time per unit, only moves a counter
	shotNoise     = 0.02
	learningRate  = 0.01
	initScale     = 0.05
	warmupSteps   = 64
	lossHistSteps = 1 << 16 // history capacity; a run takes far fewer steps
)

type generator struct {
	opt  *optimizer.Adam
	acc  *grad.Accumulator
	rngs *rng.Set

	params, best, grad []float64
	values             []float64 // the current step's unit values
	next               int       // next unit to evaluate in the current step

	st core.TrainingState
}

// newGenerator builds the run for seed with P parameters, warmupSteps
// optimizer steps in.
func newGenerator(seed uint64, p int) (*generator, error) {
	g := &generator{
		opt:    optimizer.NewAdam(p, learningRate),
		acc:    grad.NewAccumulator(2 * p),
		rngs:   rng.NewSet(seed),
		params: make([]float64, p),
		best:   make([]float64, p),
		grad:   make([]float64, p),
		values: make([]float64, 2*p),
	}
	for i := range g.params {
		g.params[i] = initScale * g.rngs.Init.NormFloat64()
	}
	copy(g.best, g.params)
	st := core.NewTrainingState()
	st.Params = g.params
	st.BestParams = g.best
	st.BestLoss = meanSquare(g.params)
	st.LossHistory = make([]float64, 0, lossHistSteps)
	st.Meta.CircuitFP = "ckptbench-ansatz"
	st.Meta.ProblemFP = "ckptbench-quadratic"
	st.Meta.OptimizerName = g.opt.Name()
	g.st = *st
	for i := 0; i < warmupSteps; i++ {
		g.advanceUnits(2 * p)
	}
	return g, g.capture()
}

// state is the current training state. It aliases the generator's
// buffers, so it is valid until the next advance.
func (g *generator) state() *core.TrainingState { return &g.st }

// step advances one whole optimizer step (the step-boundary checkpoint):
// it finishes the step in flight, evaluating whatever units remain.
func (g *generator) step() error {
	g.advanceUnits(len(g.values) - g.next)
	return g.capture()
}

// units advances k parameter-shift work units (the sub-step checkpoint);
// completing the last unit of a step applies the optimizer update.
func (g *generator) units(k int) error {
	g.advanceUnits(k)
	return g.capture()
}

func (g *generator) advanceUnits(k int) {
	for ; k > 0; k-- {
		i := g.next
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		v := sign*g.params[i/2] + shotNoise*(g.rngs.Shots.Float64()-0.5)
		g.values[i] = v
		g.acc.Record(i, v)
		g.st.Counters.TotalShots += shotsPerUnit
		g.st.Counters.Jobs++
		g.st.Counters.QPUClockNS += unitClockNS
		g.next++
		if g.next == len(g.values) {
			g.applyStep()
		}
	}
}

func (g *generator) applyStep() {
	for p := range g.grad {
		g.grad[p] = 0.5 * (g.values[2*p] - g.values[2*p+1])
	}
	g.opt.Step(g.params, g.grad)
	g.acc.Reset()
	g.next = 0
	g.st.Step++
	loss := meanSquare(g.params)
	g.st.LossHistory = append(g.st.LossHistory, loss)
	if loss < g.st.BestLoss {
		g.st.BestLoss = loss
		copy(g.best, g.params)
	}
}

// capture refreshes the serialized blobs exactly as the trainer's Capture
// does: an empty accumulator is checkpointed as no accumulator.
func (g *generator) capture() error {
	var err error
	if g.st.Optimizer, err = g.opt.MarshalBinary(); err != nil {
		return err
	}
	if g.st.RNG, err = g.rngs.MarshalBinary(); err != nil {
		return err
	}
	g.st.GradAccum = []byte{}
	if g.next > 0 {
		if g.st.GradAccum, err = g.acc.MarshalBinary(); err != nil {
			return err
		}
	}
	return nil
}

func meanSquare(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s / float64(len(v))
}
