package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/qos"
	"milan/internal/workload"
)

// spec fixes everything about a workload except its seed.
type spec struct {
	name   string
	served bool               // over qosnet to a server process with a durable plane
	sync   durable.SyncPolicy // served workloads only

	procs, shards, probeK int

	job     func(id int, release float64) core.Job
	meanGap float64 // schedule-time mean inter-release gap (Poisson)
	widest  int     // processors of the widest task the stream holds

	startJobs    int     // decisions in the starting state the plane recovers
	warmJobs     int     // negotiations before timing starts
	observeEvery int     // an Observe after every this many negotiations...
	observeLag   float64 // ...at the negotiated job's release minus this lag

	ladder []float64     // offered negotiations per second, ascending
	limit  time.Duration // admit p99 limit for the sustained rate
}

// readsPer is the number of negotiations per Stats or Utilization read:
// every fifth operation is a read, alternating between the two.
const readsPer = 4

// fig4 is the paper's Figure-4 tunable job: task A needs 16 processors for
// 25 time units, task B 4 for 100, in either order, with laxity 0.5.
var fig4 = workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}

func fig4Job(id int, release float64) core.Job { return fig4.Job(id, release, workload.Tunable) }

// deepJob is a small, long-lived two-chain reservation with long laxity:
// thousands of them stay live per shard, so planning dominates.
func deepJob(id int, release float64) core.Job {
	dl := release + 1024
	return core.Job{ID: id, Release: release, Chains: []core.Chain{
		{Quality: 1, Tasks: []core.Task{{Procs: 2, Duration: 8, Deadline: dl, Quality: 1}}},
		{Quality: 1, Tasks: []core.Task{{Procs: 1, Duration: 16, Deadline: dl, Quality: 1}}},
	}}
}

var specs = []spec{
	{
		// What junctiond -wal-dir serves: SyncAlways, fsync-bound.
		name: "served-durable", served: true, sync: durable.SyncAlways,
		procs: 64, shards: 2, probeK: 1,
		job: fig4Job, meanGap: 18, widest: 16,
		startJobs: 30000, warmJobs: 1600, observeEvery: 32, observeLag: 50,
		ladder: []float64{500, 1000, 2000, 3000, 4500, 8000},
		limit:  20 * time.Millisecond,
	},
	{
		// The same stack without fsync, overloaded in schedule time so about
		// half the negotiations are (journaled) rejections.
		name: "served-nosync", served: true, sync: durable.SyncNever,
		procs: 64, shards: 2, probeK: 1,
		job: fig4Job, meanGap: 6, widest: 16,
		startJobs: 30000, warmJobs: 1600, observeEvery: 32, observeLag: 50,
		ladder: []float64{1000, 2500, 5000, 7500, 10000, 20000},
		limit:  10 * time.Millisecond,
	},
	{
		// In process, no WAL, no wire: deep profiles make core the cost.
		name: "plan-deep", served: false,
		procs: 64, shards: 2, probeK: 2,
		job: deepJob, meanGap: 0.5, widest: 2,
		startJobs: 6000, warmJobs: 2000, observeEvery: 256, observeLag: 2048,
		ladder: []float64{1000, 2000, 3000, 4000, 6000, 16000},
		limit:  20 * time.Millisecond,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// stream is a workload's job sequence: IDs from 1, releases from a seeded
// Poisson process in schedule time.  Jobs are handed out in release order.
type stream struct {
	mu      sync.Mutex
	sp      spec
	rng     *rand.Rand
	next    int
	release float64
}

func newStream(sp spec, seed int64) *stream {
	return &stream{sp: sp, rng: rand.New(rand.NewSource(seed)), next: 1}
}

// Next returns the next job and, when an Observe is due after it, the clock
// value to observe (0 otherwise).
func (s *stream) Next() (core.Job, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release += s.rng.ExpFloat64() * s.sp.meanGap
	id := s.next
	s.next++
	obs := 0.0
	if id%s.sp.observeEvery == 0 {
		obs = math.Max(0, s.release-s.sp.observeLag)
	}
	return s.sp.job(id, s.release), obs
}

// LastRelease returns the release of the latest job handed out.
func (s *stream) LastRelease() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.release
}

// checkGrant verifies the paper's admission guarantee for one grant: the
// chosen chain's tasks run in order, each for its duration on its
// processors, starting no earlier than the release and finishing by its
// deadline.
func checkGrant(job core.Job, g *qos.Grant) error {
	if g.JobID != job.ID || g.Chain < 0 || g.Chain >= len(job.Chains) {
		return fmt.Errorf("job %d: grant for job %d names chain %d of %d", job.ID, g.JobID, g.Chain, len(job.Chains))
	}
	tasks := job.Chains[g.Chain].Tasks
	if len(g.Placement.Tasks) != len(tasks) {
		return fmt.Errorf("job %d: %d placements for %d tasks", job.ID, len(g.Placement.Tasks), len(tasks))
	}
	prev := job.Release
	for i, p := range g.Placement.Tasks {
		if p.Task != i {
			return fmt.Errorf("job %d: placement %d is for task %d", job.ID, i, p.Task)
		}
		t := tasks[i]
		switch {
		case p.Start < prev-core.Eps:
			return fmt.Errorf("job %d task %d: starts at %v before %v", job.ID, i, p.Start, prev)
		case p.Finish > t.Deadline+core.Eps:
			return fmt.Errorf("job %d task %d: finishes at %v after deadline %v", job.ID, i, p.Finish, t.Deadline)
		case p.Finish-p.Start < t.Duration-core.Eps || p.Procs != t.Procs:
			return fmt.Errorf("job %d task %d: placed %v x %d, needs %v x %d", job.ID, i, p.Finish-p.Start, p.Procs, t.Duration, t.Procs)
		}
		prev = p.Finish
	}
	return nil
}
