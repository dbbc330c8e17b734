package core

import (
	"errors"
	"fmt"
)

// Task is one stage of a job's chain.  Exactly one of the two resource
// models applies:
//
//   - Non-malleable (Malleable == false): the task needs Procs processors
//     simultaneously for Duration time units, a fixed rectangle in the
//     processor-time plane.  This models message-passing (PVM/MPI style)
//     programs whose processor count cannot change once started.
//   - Malleable (Malleable == true): the task performs Work processor-time
//     units of computation and can run on any p in [1, MaxProcs] processors
//     with linear speedup, i.e. for Work/p time.  This models Calypso
//     programs, where logical concurrency is mapped to processors at runtime.
//
// Deadline is absolute: the task and all of its predecessors in the chain
// must have finished by Deadline.  Quality is the task's contribution to the
// output quality of its chain; the scheduler itself treats it as opaque.
type Task struct {
	Name     string
	Procs    int     // processors required (non-malleable model)
	Duration float64 // time required (non-malleable model)
	Deadline float64 // absolute completion deadline for this task and its predecessors

	Malleable bool
	Work      float64 // total processor-time units (malleable model)
	MaxProcs  int     // degree of concurrency (malleable model)

	Quality float64
}

// Area returns the task's total resource requirement in processor-time units.
func (t Task) Area() float64 {
	if t.Malleable {
		return t.Work
	}
	return float64(t.Procs) * t.Duration
}

// Validate checks the internal consistency of the task.
func (t Task) Validate() error {
	if t.Malleable {
		if t.Work <= 0 {
			return fmt.Errorf("task %q: malleable work %v must be positive", t.Name, t.Work)
		}
		if t.MaxProcs < 1 {
			return fmt.Errorf("task %q: malleable max procs %d must be >= 1", t.Name, t.MaxProcs)
		}
		return nil
	}
	if t.Procs < 1 {
		return fmt.Errorf("task %q: procs %d must be >= 1", t.Name, t.Procs)
	}
	if t.Duration <= 0 {
		return fmt.Errorf("task %q: duration %v must be positive", t.Name, t.Duration)
	}
	return nil
}

// MakeMalleable returns a malleable version of a non-malleable task: the
// rectangle Procs x Duration becomes Work = Procs*Duration spreadable over up
// to Procs processors (the task's degree of concurrency).  A task that is
// already malleable is returned unchanged.
func (t Task) MakeMalleable() Task {
	if t.Malleable {
		return t
	}
	m := t
	m.Malleable = true
	m.Work = float64(t.Procs) * t.Duration
	m.MaxProcs = t.Procs
	return m
}

// Chain is one execution path of a job: an ordered sequence of tasks, each of
// which may begin as soon as its predecessor completes.  Quality is the
// composed output quality of the path.
type Chain struct {
	Name    string
	Tasks   []Task
	Quality float64
}

// Area returns the chain's total resource requirement in processor-time units.
func (c Chain) Area() float64 {
	var a float64
	for _, t := range c.Tasks {
		a += t.Area()
	}
	return a
}

// Validate checks every task and requires task deadlines to be
// non-decreasing along the chain (a successor cannot be due before its
// predecessor, since deadlines are cumulative).
func (c Chain) Validate() error {
	if len(c.Tasks) == 0 {
		return fmt.Errorf("chain %q: no tasks", c.Name)
	}
	prev := 0.0
	for i, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("chain %q task %d: %w", c.Name, i, err)
		}
		if i > 0 && timeLess(t.Deadline, prev) {
			return fmt.Errorf("chain %q task %d: deadline %v before predecessor deadline %v",
				c.Name, i, t.Deadline, prev)
		}
		prev = t.Deadline
	}
	return nil
}

// MakeMalleable returns a copy of the chain with every task made malleable.
func (c Chain) MakeMalleable() Chain {
	out := Chain{Name: c.Name, Quality: c.Quality, Tasks: make([]Task, len(c.Tasks))}
	for i, t := range c.Tasks {
		out.Tasks[i] = t.MakeMalleable()
	}
	return out
}

// Job is a unit of admission: it is released (arrives) at Release and may
// execute along any one of Chains.  A job with a single chain is non-tunable;
// multiple chains are the enumerated paths of the application's OR task
// graph.
type Job struct {
	ID      int
	Name    string
	Release float64
	Chains  []Chain

	// Trace and Span carry request-tracing identity (obs.TraceID /
	// obs.SpanID of the request's root span) through the admission
	// pipeline as plain integers, so core needs no observability
	// dependency.  Zero means "untraced"; the scheduler never reads
	// them beyond passing the job to its hooks.
	Trace uint64
	Span  uint64

	// Tenant and Class carry accounting identity (which principal the
	// job bills to, and at which priority class) through the admission
	// pipeline as plain values — the same no-dependency trick as
	// Trace/Span, so core stays below the observability layer.  The
	// scheduler itself never reads them; the utilization ledger
	// (internal/obs/ledger) attributes reserved and realized capacity
	// by (Tenant, Class).  Empty tenant means "unattributed".
	Tenant string
	Class  int
}

// Tunable reports whether the job offers the scheduler a choice of paths.
func (j Job) Tunable() bool { return len(j.Chains) > 1 }

// Area returns the resource requirement of the job's cheapest chain.
func (j Job) Area() float64 {
	if len(j.Chains) == 0 {
		return 0
	}
	a := j.Chains[0].Area()
	for _, c := range j.Chains[1:] {
		a = minTime(a, c.Area())
	}
	return a
}

// MaxChains bounds the execution paths one job may offer: a Job's Chains
// or a DAGJob's Alts.  Validate enforces it at admission, so every chosen
// path index a scheduler commits (Placement.Chain) is below it, and crash
// recovery can refuse any larger index as corrupt.
const MaxChains = 1 << 16

// Validate checks the job and all its chains.  Task deadlines must not
// precede the job's release time.
func (j Job) Validate() error {
	if len(j.Chains) == 0 {
		return errors.New("job has no chains")
	}
	if len(j.Chains) > MaxChains {
		return fmt.Errorf("job %d: %d chains (limit %d)", j.ID, len(j.Chains), MaxChains)
	}
	for ci, c := range j.Chains {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("job %d: %w", j.ID, err)
		}
		for ti, t := range c.Tasks {
			if timeLess(t.Deadline, j.Release) {
				return fmt.Errorf("job %d chain %d task %d: deadline %v before release %v",
					j.ID, ci, ti, t.Deadline, j.Release)
			}
		}
	}
	return nil
}

// MakeMalleable returns a copy of the job with every chain made malleable.
func (j Job) MakeMalleable() Job {
	out := j
	out.Chains = make([]Chain, len(j.Chains))
	for i, c := range j.Chains {
		out.Chains[i] = c.MakeMalleable()
	}
	return out
}

// TaskPlacement records where one task of an admitted job was scheduled.
type TaskPlacement struct {
	Task   int // index within the chain
	Start  float64
	Finish float64
	Procs  int // actual processor count (differs from Task.Procs only for malleable tasks)
}

// Duration returns the scheduled duration of the placed task.
func (p TaskPlacement) Duration() float64 { return p.Finish - p.Start }

// Placement is the reservation granted to an admitted job: the chosen chain
// and the start/finish times and processor counts of each of its tasks.
type Placement struct {
	JobID int
	Chain int // index of the chosen chain within the job
	Tasks []TaskPlacement
}

// Finish returns the completion time of the placement's last task.
func (p Placement) Finish() float64 {
	if len(p.Tasks) == 0 {
		return 0
	}
	return p.Tasks[len(p.Tasks)-1].Finish
}

// Start returns the start time of the placement's first task.
func (p Placement) Start() float64 {
	if len(p.Tasks) == 0 {
		return 0
	}
	return p.Tasks[0].Start
}

// Area returns the total processor-time actually reserved by the placement.
func (p Placement) Area() float64 {
	var a float64
	for _, tp := range p.Tasks {
		a += float64(tp.Procs) * tp.Duration()
	}
	return a
}
