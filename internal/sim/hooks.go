package sim

import "repro/internal/population"

// SpreadRecorder samples the group-size spread (max−min) every Interval
// interactions; used by convergence-trajectory plots and tests asserting
// monotone-ish convergence behaviour.
type SpreadRecorder struct {
	Interval uint64
	Samples  []int
}

// Init implements Hook.
func (r *SpreadRecorder) Init(pop *population.Population) {
	r.Samples = r.Samples[:0]
	r.Samples = append(r.Samples, pop.Spread())
}

// OnStep implements Hook.
func (r *SpreadRecorder) OnStep(pop *population.Population, s StepInfo) {
	if r.Interval == 0 {
		return
	}
	if pop.Interactions()%r.Interval == 0 {
		r.Samples = append(r.Samples, pop.Spread())
	}
}

// StepFunc adapts a function to the Hook interface.
type StepFunc func(pop *population.Population, s StepInfo)

// Init implements Hook.
func (StepFunc) Init(*population.Population) {}

// OnStep implements Hook.
func (f StepFunc) OnStep(pop *population.Population, s StepInfo) { f(pop, s) }
