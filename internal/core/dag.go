package core

import (
	"fmt"
	"sort"
)

// DAGTask is one node of a precedence DAG: the task plus the indices of
// its predecessors within the DAG.
type DAGTask struct {
	Task
	Preds []int
}

// DAG generalizes a chain to the paper's fuller model — "the application
// is viewed as an execution path (a chain, or more generally, a dag)"
// (Section 3.1).  A task may start once all of its predecessors have
// finished; independent tasks may run concurrently, competing for
// capacity.
type DAG struct {
	Name    string
	Tasks   []DAGTask
	Quality float64
}

// Validate checks indices, task fields and acyclicity.
func (d DAG) Validate() error {
	if len(d.Tasks) == 0 {
		return fmt.Errorf("dag %q: no tasks", d.Name)
	}
	for i, t := range d.Tasks {
		if err := t.Task.Validate(); err != nil {
			return fmt.Errorf("dag %q task %d: %w", d.Name, i, err)
		}
		for _, p := range t.Preds {
			if p < 0 || p >= len(d.Tasks) {
				return fmt.Errorf("dag %q task %d: predecessor %d out of range", d.Name, i, p)
			}
			if p == i {
				return fmt.Errorf("dag %q task %d: self-dependency", d.Name, i)
			}
		}
	}
	if _, err := d.topoOrder(); err != nil {
		return err
	}
	return nil
}

// topoOrder returns a deterministic topological order: among ready tasks,
// the earliest deadline first (list scheduling with an EDF priority),
// breaking ties by index.
func (d DAG) topoOrder() ([]int, error) {
	n := len(d.Tasks)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, t := range d.Tasks {
		indeg[i] = len(t.Preds)
		for _, p := range t.Preds {
			succs[p] = append(succs[p], i)
		}
	}
	ready := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			ta, tb := d.Tasks[ready[a]], d.Tasks[ready[b]]
			if !timeEq(ta.Deadline, tb.Deadline) {
				return ta.Deadline < tb.Deadline
			}
			return ready[a] < ready[b]
		})
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag %q: dependency cycle", d.Name)
	}
	return order, nil
}

// Area returns the DAG's total resource requirement.
func (d DAG) Area() float64 {
	var a float64
	for _, t := range d.Tasks {
		a += t.Area()
	}
	return a
}

// Chain converts a chain into the equivalent linear DAG.
func (c Chain) DAG() DAG {
	d := DAG{Name: c.Name, Quality: c.Quality, Tasks: make([]DAGTask, len(c.Tasks))}
	for i, t := range c.Tasks {
		dt := DAGTask{Task: t}
		if i > 0 {
			dt.Preds = []int{i - 1}
		}
		d.Tasks[i] = dt
	}
	return d
}

// DAGJob is a tunable job over alternative DAGs (the OR graph's enumerated
// paths when paths are graphs rather than chains).
type DAGJob struct {
	ID      int
	Name    string
	Release float64
	Alts    []DAG
}

// Validate checks every alternative.
func (j DAGJob) Validate() error {
	if len(j.Alts) == 0 {
		return fmt.Errorf("dag job %d: no alternatives", j.ID)
	}
	if len(j.Alts) > MaxChains {
		return fmt.Errorf("dag job %d: %d alternatives (limit %d)", j.ID, len(j.Alts), MaxChains)
	}
	for i, d := range j.Alts {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("dag job %d alt %d: %w", j.ID, i, err)
		}
		for ti, t := range d.Tasks {
			if timeLess(t.Deadline, j.Release) {
				return fmt.Errorf("dag job %d alt %d task %d: deadline %v before release %v",
					j.ID, i, ti, t.Deadline, j.Release)
			}
		}
	}
	return nil
}

// PlanDAG tentatively places one DAG released at `release`.  Unlike chain
// placement, independent tasks may overlap in time, so planning runs
// against a scratch copy of the profile: each task (in deadline-priority
// topological order) is placed at its earliest feasible start after its
// predecessors and immediately reserved on the scratch.
//
// Placement.Tasks is indexed by DAG task index (Tasks[i].Task == i).
func (s *Scheduler) PlanDAG(dag DAG, release float64) (*Placement, bool) {
	order, err := dag.topoOrder()
	if err != nil {
		return nil, false
	}
	scratch := s.prof.Clone()
	placements := make([]TaskPlacement, len(dag.Tasks))
	finish := make([]float64, len(dag.Tasks))
	for _, i := range order {
		est := release
		for _, p := range dag.Tasks[i].Preds {
			est = maxTime(est, finish[p])
		}
		tp, ok := s.placeTaskOn(scratch, dag.Tasks[i].Task, i, est)
		if !ok {
			return nil, false
		}
		if err := scratch.Reserve(tp.Procs, tp.Start, tp.Finish); err != nil {
			return nil, false
		}
		placements[i] = tp
		finish[i] = tp.Finish
	}
	return &Placement{Tasks: placements}, true
}

// AdmitDAG runs admission control for a tunable DAG job: every alternative
// is planned, the best schedulable one (under the configured tie-break) is
// committed.  The chosen alternative's index is recorded in
// Placement.Chain.
func (s *Scheduler) AdmitDAG(job DAGJob) (*Placement, error) {
	if err := job.Validate(); err != nil {
		return nil, fmt.Errorf("core: admit dag: %w", err)
	}
	var best *Placement
	var bestKey chainKey
	for ai, alt := range job.Alts {
		s.stat.ChainsTried++
		pl, ok := s.PlanDAG(alt, job.Release)
		if !ok {
			continue
		}
		pl.JobID = job.ID
		pl.Chain = ai
		key := s.dagSortKey(pl, alt, job.Release)
		if best == nil || s.better(key, bestKey) {
			best, bestKey = pl, key
		}
		if s.opts.TieBreak == TieBreakFirstFit {
			break
		}
	}
	if best == nil {
		s.stat.Rejected++
		s.stat.PlanFailures++
		return nil, ErrRejected
	}
	if err := s.ReservePlacement(best); err != nil {
		return nil, err
	}
	s.stat.Admitted++
	s.stat.ReservedArea += best.Area()
	s.stat.QualitySum += job.Alts[best.Chain].Quality
	if len(job.Alts) > 1 {
		for len(s.stat.TunableChosen) <= best.Chain {
			s.stat.TunableChosen = append(s.stat.TunableChosen, 0)
		}
		s.stat.TunableChosen[best.Chain]++
	}
	return best, nil
}

// dagSortKey builds the tie-break key for a DAG placement: finish is the
// makespan (latest task finish), the prefix is cumulative area in start
// order.
func (s *Scheduler) dagSortKey(pl *Placement, dag DAG, release float64) chainKey {
	finish := 0.0
	for _, tp := range pl.Tasks {
		if tp.Finish > finish {
			finish = tp.Finish
		}
	}
	window := finish - release
	var util float64
	if window > Eps {
		util = (s.prof.BusyOn(maxTime(release, s.prof.Origin()), finish) + pl.Area()) /
			(float64(s.prof.Capacity()) * window)
	}
	byStart := append([]TaskPlacement(nil), pl.Tasks...)
	sort.Slice(byStart, func(a, b int) bool {
		if !timeEq(byStart[a].Start, byStart[b].Start) {
			return byStart[a].Start < byStart[b].Start
		}
		return byStart[a].Task < byStart[b].Task
	})
	prefix := make([]float64, len(byStart))
	var cum float64
	for i, tp := range byStart {
		cum += float64(tp.Procs) * tp.Duration()
		prefix[i] = cum
	}
	return chainKey{finish: finish, util: util, area: pl.Area(), quality: dag.Quality, prefix: prefix}
}
