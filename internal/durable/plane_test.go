package durable

import (
	"errors"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
	"milan/internal/workload"
)

// The durable plane must be a drop-in arbitrator for qosnet servers.
var _ qosnet.Arbitrator = (*Plane)(nil)

func planeStream(n int, seed int64) []core.Job {
	p := workload.FigureJob{X: 4, T: 25, Alpha: 0.25, Laxity: 0.5}
	return p.Stream(workload.NewPoisson(6, seed), n, workload.Tunable)
}

func openPlane(t *testing.T, fs vfs.FS, shards int, opts StoreOptions) (*Plane, Recovered) {
	t.Helper()
	p, rec, err := OpenPlane(Config{
		FS: fs, Dir: "log", Procs: 16, Shards: shards, ProbeK: 1,
		Store: opts,
	})
	if err != nil {
		t.Fatalf("open plane: %v", err)
	}
	return p, rec
}

// drive pushes jobs through any negotiator-shaped plane, observing each
// release first (the sim loop's discipline), and returns granted job IDs.
func drive(t *testing.T, observe func(float64), negotiate func(core.Job) (*qos.Grant, error), jobs []core.Job) []int {
	t.Helper()
	var granted []int
	for _, job := range jobs {
		observe(job.Release)
		g, err := negotiate(job)
		if err != nil {
			if !errors.Is(err, qos.ErrRejected) {
				t.Fatalf("job %d: %v", job.ID, err)
			}
			continue
		}
		granted = append(granted, g.JobID)
	}
	return granted
}

// TestPlaneMatchesUndurableArbitrator: journaling must not change a single
// decision.  The durable monolith and a plain qos.Arbitrator see the same
// stream and must end bitwise-identical.
func TestPlaneMatchesUndurableArbitrator(t *testing.T) {
	jobs := planeStream(200, 7)
	p, _ := openPlane(t, vfs.NewMem(), 1, StoreOptions{})
	ref, err := qos.NewArbitrator(qos.ArbitratorConfig{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	gp := drive(t, p.Observe, p.Negotiate, jobs)
	gr := drive(t, ref.Observe, ref.Negotiate, jobs)
	if len(gp) != len(gr) {
		t.Fatalf("durable granted %d, reference granted %d", len(gp), len(gr))
	}
	st := p.ExportState()
	refSt := ref.ExportState()
	want := State{Now: refSt.Now, Shards: []core.SchedulerState{refSt.Sched}, Grants: st.Grants}
	if err := DiffStates(&st, &want); err != nil {
		t.Fatalf("durable plane diverged from plain arbitrator: %v", err)
	}
}

// TestPlaneReopenIsExact: close and reopen at any point; the recovered
// plane must be bitwise-identical to the one that kept running, and must
// keep making identical decisions afterwards.
func TestPlaneReopenIsExact(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, snapEvery := range []int{4, 1 << 20} {
			jobs := planeStream(300, 11)
			mem := vfs.NewMem()
			p, _ := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: snapEvery})
			ref, _, err := OpenPlane(Config{FS: vfs.NewMem(), Dir: "ref", Procs: 16, Shards: shards, ProbeK: 1,
				Store: StoreOptions{SnapshotEvery: snapEvery}})
			if err != nil {
				t.Fatal(err)
			}

			cut := 170
			drive(t, p.Observe, p.Negotiate, jobs[:cut])
			drive(t, ref.Observe, ref.Negotiate, jobs[:cut])
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p2, rec := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: snapEvery})
			got := p2.ExportState()
			want := ref.ExportState()
			if err := DiffStates(&got, &want); err != nil {
				t.Fatalf("shards=%d snapEvery=%d: recovered state diverged: %v (recovery %+v)",
					shards, snapEvery, err, rec)
			}

			// The recovered plane keeps deciding identically.
			gp := drive(t, p2.Observe, p2.Negotiate, jobs[cut:])
			gr := drive(t, ref.Observe, ref.Negotiate, jobs[cut:])
			if len(gp) != len(gr) {
				t.Fatalf("shards=%d: post-recovery grants %d vs %d", shards, len(gp), len(gr))
			}
			got, want = p2.ExportState(), ref.ExportState()
			if err := DiffStates(&got, &want); err != nil {
				t.Fatalf("shards=%d: post-recovery divergence: %v", shards, err)
			}
		}
	}
}

// TestPlaneCrashLosesNothingUnderSyncAlways: a hard crash (no Close) after
// every ack must preserve every acknowledged grant.
func TestPlaneCrashLosesNothingUnderSyncAlways(t *testing.T) {
	jobs := planeStream(150, 13)
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 2, StoreOptions{Sync: SyncAlways, SnapshotEvery: 8})
	drive(t, p.Observe, p.Negotiate, jobs)
	want := p.ExportState()
	mem.Crash()

	p2, _ := openPlane(t, mem, 2, StoreOptions{})
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("crash lost state under SyncAlways: %v", err)
	}
}

// TestPlaneCompletionSurvivesRecovery: completed grants leave the live set
// durably.
func TestPlaneCompletionSurvivesRecovery(t *testing.T) {
	jobs := planeStream(40, 17)
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 1, StoreOptions{})
	granted := drive(t, p.Observe, p.Negotiate, jobs)
	if len(granted) < 2 {
		t.Fatalf("want at least 2 grants, got %d", len(granted))
	}
	done := granted[0]
	if err := p.JobCompleted(done, p.Now()); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	p2, _ := openPlane(t, mem, 1, StoreOptions{})
	for _, g := range p2.Grants() {
		if g.JobID == done {
			t.Fatalf("completed job %d reappeared as a live grant after recovery", done)
		}
	}
}

// TestShedderNeverResurrectsSheds is the shedder x recovery interlock:
// jobs refused by admission fairness are journaled as sheds and must
// never reappear as committed grants after crash recovery.
func TestShedderNeverResurrectsSheds(t *testing.T) {
	jobs := planeStream(250, 19)
	mem := vfs.NewMem()
	shed := &qos.ShedConfig{
		Capacity:     16,
		Horizon:      50,
		DefaultQuota: 0.2, // tight quota: plenty of sheds
	}
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 2, ProbeK: 1,
		Store: StoreOptions{SnapshotEvery: 16},
		Shed:  shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	shedIDs := map[int]bool{}
	var acked []int
	for _, job := range jobs {
		p.Observe(job.Release)
		g, err := p.Negotiate(job)
		switch {
		case err == nil:
			acked = append(acked, g.JobID)
			if int(p.DurableLSN()) == 0 {
				t.Fatal("ack before anything durable")
			}
		case errors.Is(err, qos.ErrShed):
			shedIDs[job.ID] = true
		case errors.Is(err, qos.ErrRejected):
		default:
			t.Fatalf("job %d: %v", job.ID, err)
		}
	}
	if len(shedIDs) == 0 {
		t.Fatal("workload produced no sheds; tighten the quota")
	}
	want := p.ExportState()
	mem.Crash()

	p2, rec, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 2, ProbeK: 1, Shed: shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("recovery diverged: %v", err)
	}
	for _, g := range p2.Grants() {
		if shedIDs[g.JobID] {
			t.Fatalf("shed job %d reappeared as a committed grant after replay", g.JobID)
		}
	}
	if rec.Torn {
		t.Fatal("unexpected torn tail under SyncAlways")
	}
}

// TestPlanePoisonedRefusesDecisions: after an append failure the plane
// fails fast instead of diverging memory from log.
func TestPlanePoisonedRefusesDecisions(t *testing.T) {
	boom := errors.New("dead disk")
	ft := vfs.NewFault(vfs.NewMem())
	p, _ := openPlane(t, ft, 1, StoreOptions{})
	jobs := planeStream(10, 23)
	drive(t, p.Observe, p.Negotiate, jobs[:3])

	ft.SetWriteError(boom, 0)
	var failedAt int
	for _, job := range jobs[3:] {
		if _, err := p.Negotiate(job); err != nil && !errors.Is(err, qos.ErrRejected) {
			failedAt = job.ID
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("no negotiate failed under write fault")
	}
	if p.Err() == nil {
		t.Fatal("plane not poisoned after append failure")
	}
	if _, err := p.Negotiate(jobs[len(jobs)-1]); err == nil || errors.Is(err, qos.ErrRejected) {
		t.Fatalf("poisoned plane kept deciding: %v", err)
	}
}

// TestPlaneMetricsPopulated: the durability instruments move.
func TestPlaneMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	mem := vfs.NewMem()
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 16, Shards: 1,
		Store: StoreOptions{SnapshotEvery: 8}, Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, p.Observe, p.Negotiate, planeStream(60, 29))
	if met.Appends.Value() == 0 || met.Fsyncs.Value() == 0 {
		t.Fatalf("append instruments flat: appends=%d fsyncs=%d", met.Appends.Value(), met.Fsyncs.Value())
	}
	if met.Snapshots.Value() < 2 { // one at open, more from cadence
		t.Fatalf("snapshots = %d", met.Snapshots.Value())
	}
	if met.SnapshotBytes.Value() <= 0 {
		t.Fatal("snapshot size gauge flat")
	}
	mem.Crash()
	if _, _, err := OpenPlane(Config{FS: mem, Dir: "log", Procs: 16, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.RecoveryRecords.Value() == 0 && met.Snapshots.Value() < 3 {
		t.Fatal("recovery instruments flat")
	}
}

// TestPlaneRebalanceJournalsCapacity: a rebalancer migration on the
// wrapped federated plane lands in the journal and survives recovery.
func TestPlaneRebalanceJournalsCapacity(t *testing.T) {
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 4, StoreOptions{})
	// Load shard-asymmetric work through the router, then move capacity.
	drive(t, p.Observe, p.Negotiate, planeStream(80, 31))
	fa := p.Fed()
	if fa == nil {
		t.Fatal("sharded plane did not wrap a federated arbitrator")
	}
	before := fa.ShardProcs()
	moved := fa.Rebalancer().RebalanceOnce()
	if !moved {
		t.Skip("no migration possible on this workload")
	}
	want := p.ExportState()
	mem.Crash()
	p2, _ := openPlane(t, mem, 4, StoreOptions{})
	got := p2.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("capacity move lost in recovery: %v (procs before %v)", err, before)
	}
}

// TestPlaneChainLimitAgreesWithRecovery: the live plane refuses a job with
// more than core.MaxChains chains without journaling anything, and admits
// one with exactly core.MaxChains chains whose last chain is the only one
// that fits; that grant's chain index recovers.  Live admission and replay
// share the limit, so no acknowledged grant can make the log unrecoverable.
func TestPlaneChainLimitAgreesWithRecovery(t *testing.T) {
	tight := core.Chain{Tasks: []core.Task{{Procs: 1, Duration: 10, Deadline: 1}}}
	fits := core.Chain{Tasks: []core.Task{{Procs: 1, Duration: 1, Deadline: 10}}}
	job := func(id, chains int) core.Job {
		j := core.Job{ID: id, Chains: make([]core.Chain, chains)}
		for i := range j.Chains {
			j.Chains[i] = tight
		}
		j.Chains[chains-1] = fits
		return j
	}
	for _, shards := range []int{1, 2} {
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, shards, StoreOptions{})
		lsn := p.DurableLSN()
		if _, err := p.Negotiate(job(1, core.MaxChains+1)); err == nil || errors.Is(err, qos.ErrRejected) {
			t.Fatalf("shards=%d: job over the chain limit: err = %v, want a validation error", shards, err)
		}
		if got := p.DurableLSN(); got != lsn {
			t.Fatalf("shards=%d: refused job journaled (LSN %d -> %d)", shards, lsn, got)
		}
		g, err := p.Negotiate(job(2, core.MaxChains))
		if err != nil {
			t.Fatalf("shards=%d: job at the chain limit: %v", shards, err)
		}
		if g.Chain != core.MaxChains-1 {
			t.Fatalf("shards=%d: chose chain %d, want the last, %d", shards, g.Chain, core.MaxChains-1)
		}
		want := p.ExportState()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		p2, rec := openPlane(t, mem, shards, StoreOptions{})
		got := p2.ExportState()
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("shards=%d: recovered state diverged: %v (recovery %+v)", shards, err, rec)
		}
		p2.Close()
	}
}

// TestPlaneDAGDecisionsRecover: DAG admissions and rejections are
// journaled like chain decisions, so a reopened plane rebuilds the same
// grants and the same admission counters — the scheduler counts a DAG
// rejection, and replay must too.
func TestPlaneDAGDecisionsRecover(t *testing.T) {
	for _, shards := range []int{1, 2} {
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: 32})
		var admitted, rejected int
		for _, job := range planeStream(90, 37) {
			p.Observe(job.Release)
			dj := core.DAGJob{ID: job.ID, Release: job.Release}
			for _, c := range job.Chains {
				dj.Alts = append(dj.Alts, c.DAG())
			}
			switch _, err := p.NegotiateDAG(dj); {
			case err == nil:
				admitted++
			case errors.Is(err, qos.ErrRejected):
				rejected++
			default:
				t.Fatalf("shards=%d: dag job %d: %v", shards, dj.ID, err)
			}
		}
		if admitted == 0 || rejected == 0 {
			t.Fatalf("shards=%d: degenerate stream (admitted=%d rejected=%d)", shards, admitted, rejected)
		}
		want := p.ExportState()
		mem.Crash()
		p2, _ := openPlane(t, mem, shards, StoreOptions{SnapshotEvery: 32})
		got := p2.ExportState()
		if err := DiffStates(&got, &want); err != nil {
			t.Fatalf("shards=%d: DAG decisions lost in recovery: %v", shards, err)
		}
		p2.Close()
	}
}
