package calypso

import (
	"fmt"
	"sync"
	"time"
)

// TaskCtx is the execution context of one task instance.  Reads see the
// shared store as of the beginning of the step (CREW semantics: updates are
// visible only at the end of the step); writes are buffered privately and
// committed exactly once even if the task executes several times.
type TaskCtx struct {
	// Width is the number of sibling tasks of this routine; Number is this
	// task's index in [0, Width).
	Width  int
	Number int
	// Worker identifies the worker executing this attempt (for tracing).
	Worker int

	store  *Store
	writes map[string]Value
}

// Read returns the value of a shared variable as of the step's beginning.
func (ctx *TaskCtx) Read(key string) (Value, bool) { return ctx.store.Get(key) }

// Write buffers an update to a shared variable; it becomes visible to other
// tasks only after the step ends.
func (ctx *TaskCtx) Write(key string, v Value) { ctx.writes[key] = v }

// ReadAs reads a shared variable with a type assertion.
func ReadAs[T any](ctx *TaskCtx, key string) (T, bool) { return GetAs[T](ctx.store, key) }

// routine is one routine statement of a parallel step.
type routine struct {
	width int
	fn    RoutineFunc
}

// Step is a parallel step under construction (parbegin ... parend).
type Step struct {
	rt       *Runtime
	routines []routine
	buildErr error
	ended    bool
}

// ParBegin opens a parallel step.  Add routines, then call End to execute.
func (rt *Runtime) ParBegin() *Step { return &Step{rt: rt} }

// Routine adds `width` task instances of fn to the step (the paper's
// `routine [int-exp](int width, int number)` construct).  It returns the
// step for chaining.
func (s *Step) Routine(width int, fn RoutineFunc) *Step {
	switch {
	case s.buildErr != nil:
	case width < 1:
		s.buildErr = fmt.Errorf("calypso: routine width %d (need >= 1)", width)
	case fn == nil:
		s.buildErr = fmt.Errorf("calypso: nil routine body")
	default:
		s.routines = append(s.routines, routine{width: width, fn: fn})
	}
	return s
}

// Parallel is shorthand for a single-routine step executed immediately.
func (rt *Runtime) Parallel(width int, fn RoutineFunc) error {
	return rt.ParBegin().Routine(width, fn).End()
}

// task is one expanded task instance with its commit state.
type task struct {
	id        int
	width     int
	number    int
	fn        RoutineFunc
	committed bool
	attempts  int
	writes    map[string]Value // the winning execution's buffered writes
}

// dispatcher coordinates eager scheduling of one step's tasks.
type dispatcher struct {
	mu        sync.Mutex
	rt        *Runtime
	step      int // step ID reported to hooks
	tasks     []*task
	fresh     int // index of next never-attempted task
	remaining int // uncommitted task count
	failed    error
	rr        int           // round-robin cursor for duplicate selection
	done      chan struct{} // closed when the step completes or fails
	stats     stepStats
	closed    bool // set by End when it snapshots stats; later events are dropped
}

// stepStats counts events within one step; flushed into Runtime.Metrics
// when the step ends.  Every count and the hook that reports it happen
// together under d.mu while the step is open, and End snapshots the stats
// and closes the step under the same lock: an event lands in both the
// stats and the hook stream or in neither, so hook counts equal Metrics by
// construction.  Executions that outlive the step report nothing.
type stepStats struct {
	execs, dups, wasted, transients, crashed int
}

// finish closes done exactly once.
func (d *dispatcher) finish() {
	select {
	case <-d.done:
	default:
		close(d.done)
	}
}

// next hands worker wid a task to execute: fresh tasks first, then eager
// duplicates of uncommitted ones.  It returns nil when the step is
// complete, has failed or has closed.
func (d *dispatcher) next(wid int) (*task, int, outcome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.failed != nil || d.remaining == 0 {
		return nil, 0, outcomeOK, d.failed
	}
	if d.fresh < len(d.tasks) {
		t := d.tasks[d.fresh]
		d.fresh++
		t.attempts++
		return t, t.attempts, d.startLocked(wid), nil
	}
	// Eager scheduling: duplicate an uncommitted task (round-robin so the
	// duplicates spread over the stragglers).
	n := len(d.tasks)
	for i := 0; i < n; i++ {
		t := d.tasks[(d.rr+i)%n]
		if t.committed {
			continue
		}
		d.rr = (d.rr + i + 1) % n
		t.attempts++
		if t.attempts > d.rt.cfg.MaxAttempts {
			d.failed = fmt.Errorf("%w: task %d after %d executions", ErrTooManyAttempts, t.id, t.attempts)
			return nil, 0, outcomeOK, d.failed
		}
		d.stats.dups++
		return t, t.attempts, d.startLocked(wid), nil
	}
	return nil, 0, outcomeOK, nil // raced with the last commit
}

// startLocked counts an execution handed to worker wid and draws its
// injected fate.  The fate's effects (a crash noted on the runtime, the
// fault counted and reported) are applied before d.mu is released, so a
// fault is drawn only in an open step and is never drawn without being
// applied.  The caller holds d.mu.
func (d *dispatcher) startLocked(wid int) outcome {
	d.stats.execs++
	fate := d.rt.cfg.Faults.decide(d.rt.cfg.Workers)
	switch fate {
	case outcomeCrash:
		d.rt.noteCrash()
		d.stats.crashed++
		d.fault(wid, "crash")
	case outcomeTransient:
		d.stats.transients++
		d.fault(wid, "transient")
	case outcomeSlow:
		d.fault(wid, "slow")
	}
	return fate
}

// fault reports an injected fault to the WorkerFault hook.  The caller
// holds d.mu.
func (d *dispatcher) fault(wid int, kind string) {
	if h := d.rt.cfg.Hooks.WorkerFault; h != nil {
		h(d.step, wid, kind)
	}
}

// commit records an execution's writes (the first completer wins) and
// reports the execution through exec.  It returns false, doing nothing,
// once the step has closed: a straggler's late commit is neither counted
// nor reported, and the worker must exit.
func (d *dispatcher) commit(t *task, writes map[string]Value, exec func(won bool)) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	won := !t.committed && d.failed == nil
	if won {
		t.committed = true
		t.writes = writes
		d.remaining--
		if d.remaining == 0 {
			d.finish()
		}
	} else {
		d.stats.wasted++
	}
	exec(won)
	return true
}

// fail aborts the step with the given error (first failure wins).
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed == nil {
		d.failed = err
	}
	d.finish()
}

// End executes the step to completion: all tasks committed exactly once,
// then all writes merged into the shared store, enforcing exclusive-write
// semantics.  End returns an error if the step cannot complete (every
// worker crashed, a task kept failing, a routine returned an error or two
// tasks wrote the same variable).
func (s *Step) End() (err error) {
	if s.ended {
		return fmt.Errorf("calypso: step already ended")
	}
	s.ended = true
	if s.buildErr != nil {
		return s.buildErr
	}
	if len(s.routines) == 0 {
		return fmt.Errorf("calypso: empty parallel step")
	}
	rt := s.rt
	hooks := rt.cfg.Hooks

	d := &dispatcher{rt: rt, done: make(chan struct{})}
	id := 0
	for _, r := range s.routines {
		for n := 0; n < r.width; n++ {
			d.tasks = append(d.tasks, &task{id: id, width: r.width, number: n, fn: r.fn})
			id++
		}
	}
	d.remaining = len(d.tasks)

	// Crashed workers stay dead across steps: the step runs on however
	// many workers the program still has.
	workers := rt.Alive()
	if workers == 0 {
		return fmt.Errorf("%w: none alive at step start", ErrNoWorkers)
	}

	stepID := rt.nextStepID()
	d.step = stepID
	if hooks.StepStart != nil {
		hooks.StepStart(stepID, len(d.tasks))
	}
	if hooks.StepDone != nil {
		stepBegan := time.Now()
		defer func() { hooks.StepDone(stepID, time.Since(stepBegan), err) }()
	}

	var aliveMu sync.Mutex
	alive := workers

	worker := func(wid int) {
		for {
			t, attempt, fate, err := d.next(wid)
			if t == nil || err != nil {
				return
			}
			switch fate {
			case outcomeCrash:
				aliveMu.Lock()
				alive--
				dead := alive == 0
				aliveMu.Unlock()
				if dead {
					d.fail(fmt.Errorf("%w: every worker of this step crashed", ErrNoWorkers))
				}
				return // the worker is gone; its execution is lost
			case outcomeTransient:
				continue // abandoned; eager scheduling will retry
			case outcomeSlow:
				time.Sleep(rt.cfg.Faults.SlowDelay)
			}

			ctx := &TaskCtx{
				Width:  t.width,
				Number: t.number,
				Worker: wid,
				store:  rt.store,
				writes: make(map[string]Value),
			}
			started := time.Now()
			if err := s.runBody(t, ctx); err != nil {
				d.fail(err)
				return
			}
			// A slow worker stretches its execution by 1/speed: the extra
			// time is modeled as a delay before commit, so a fast worker's
			// eager duplicate can win the race.
			if sp := rt.speed(wid); sp < 1 {
				elapsed := time.Since(started)
				time.Sleep(time.Duration(float64(elapsed) * (1/sp - 1)))
			}
			if !d.commit(t, ctx.writes, func(won bool) {
				if hooks.TaskExec != nil {
					hooks.TaskExec(stepID, wid, t.id, attempt, started, time.Since(started), won)
				}
			}) {
				return
			}
		}
	}

	for w := 0; w < workers; w++ {
		go worker(w)
	}
	// The step ends as soon as every task has committed (or the step
	// failed) — not when every in-flight execution returns.  A stalled
	// duplicate keeps running in the background and exits at its commit
	// or next dispatch attempt; its late stats, hooks and commit are
	// discarded.  This is the point of eager scheduling: stragglers cannot
	// delay the step.
	<-d.done

	d.mu.Lock()
	d.closed = true
	st := d.stats
	failed := d.failed
	remaining := d.remaining
	// Snapshot the winning write buffers while holding the lock so a
	// late-committing straggler cannot race the merge below.
	taskWrites := make([]map[string]Value, len(d.tasks))
	taskIDs := make([]int, len(d.tasks))
	for i, t := range d.tasks {
		taskWrites[i] = t.writes
		taskIDs[i] = t.id
	}
	d.mu.Unlock()

	rt.mu.Lock()
	rt.metrics.Steps++
	rt.metrics.Tasks += len(d.tasks)
	rt.metrics.Executions += st.execs
	rt.metrics.Duplicates += st.dups
	rt.metrics.WastedCommit += st.wasted
	rt.metrics.Crashes += st.crashed
	rt.metrics.Transients += st.transients
	rt.mu.Unlock()

	if failed != nil {
		return failed
	}
	if remaining > 0 {
		return fmt.Errorf("%w: %d tasks uncommitted", ErrNoWorkers, remaining)
	}

	// Merge with exclusive-write checking: two distinct tasks writing one
	// variable is a CW conflict (duplicated executions of the same task
	// are fine — only the winner's buffer is kept).
	writer := make(map[string]int)
	merged := make(map[string]Value)
	for i, writes := range taskWrites {
		for k, v := range writes {
			if prev, ok := writer[k]; ok && prev != taskIDs[i] {
				return fmt.Errorf("%w: tasks %d and %d both write %q", ErrWriteConflict, prev, taskIDs[i], k)
			}
			writer[k] = taskIDs[i]
			merged[k] = v
		}
	}
	rt.store.snapshotApply(merged)
	return nil
}

// runBody invokes the routine body, converting panics into errors so a
// buggy task cannot take down the runtime.
func (s *Step) runBody(t *task, ctx *TaskCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("calypso: task %d panicked: %v", t.id, r)
		}
	}()
	return t.fn(ctx, t.width, t.number)
}
