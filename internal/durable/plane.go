package durable

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/obs/latency/phase"
	"milan/internal/qos"
	"milan/internal/resbroker"
)

// Config configures a durable admission plane.
type Config struct {
	// FS is the filesystem seam (vfs.OS{} for production).
	FS vfs.FS
	// Dir is the log directory; created if absent.
	Dir string
	// Procs is the machine size used when the directory holds no prior
	// state (required); a recovered plane keeps its recovered shape.
	Procs int
	// Shards is the number of admission shards of the federated plane
	// (default 1).  One shard with ProbeK 1 decides bitwise what the
	// monolithic qos.Arbitrator decides (the fed package's differential
	// anchor), so the capacity API works at every shard count.
	Shards int
	// ProbeK is the federated router's probe fan-out (fed.Config.ProbeK).
	ProbeK int
	// Origin is the schedule start time for a genesis plane.
	Origin float64
	// Options is the scheduler policy (also used for replay).
	Options *core.Options
	// Store tunes the log (sync policy, snapshot cadence).
	Store StoreOptions
	// Shed, if set, wires a qos.Shedder in front of admission; shed
	// refusals are journaled so recovery can prove they never became
	// grants.
	Shed *qos.ShedConfig
	// Metrics, if set, receives durability instrumentation.
	Metrics *Metrics
	// Tracer, if set, is handed to the federated router for admission
	// spans (route/plan/reserve); the durability layer itself reports
	// through Metrics.
	Tracer *obs.Tracer
	// KeepHistory and Observer pass through to the federated arbitrator.
	KeepHistory bool
	Observer    func(qos.Decision)
}

// Plane is a durable admission plane: a fed.Arbitrator, at every shard
// count, whose every committed decision is journaled to a write-ahead log
// before it is acknowledged.  It implements the same agent-facing surface
// (qosnet.Arbitrator), so servers and workloads run against it unchanged.
//
// The plane serializes decisions under one lock: the log order IS the
// decision order, which is what makes replay-on-open recovery bit-exact.
// The price is monolithic concurrency even over a sharded plane — the
// fsync on the commit path dominates anyway.
type Plane struct {
	mu    sync.Mutex
	store *Store
	fed   *fed.Arbitrator
	shed  *qos.Shedder
	now   float64

	grants   map[int]GrantRecord
	lastShed qos.ShedDecision
	// rec is the in-flight latency record of the decision currently
	// holding the plane lock (decisions are serialized, so one slot
	// suffices); it lets the shedder-wrapped path reach the timer without
	// widening the qos.Negotiator interface the shedder speaks.
	rec *phase.Rec
}

// planeInner is the negotiator the shedder wraps: admission plus
// journaling, under the plane lock the caller already holds.
type planeInner struct{ p *Plane }

func (pi planeInner) Negotiate(job core.Job) (*qos.Grant, error) {
	return pi.p.negotiateLocked(job, pi.p.rec)
}

// OpenPlane recovers (or creates) a durable plane from cfg.Dir.
func OpenPlane(cfg Config) (*Plane, Recovered, error) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	genesis, err := Genesis(cfg.Procs, shards, cfg.Origin)
	if err != nil {
		return nil, Recovered{}, err
	}
	store, rec, err := Open(OpenConfig{
		FS: cfg.FS, Dir: cfg.Dir,
		Genesis: genesis, Options: cfg.Options,
		Store: cfg.Store, Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, Recovered{}, err
	}
	st := &rec.State
	p := &Plane{store: store, now: st.Now, grants: make(map[int]GrantRecord, len(st.Grants))}
	for _, g := range st.Grants {
		p.grants[g.JobID] = g
	}
	fa, err := fed.New(fed.Config{
		Procs: st.Procs(), Shards: len(st.Shards), ProbeK: cfg.ProbeK,
		Origin: cfg.Origin, Options: cfg.Options,
		KeepHistory: cfg.KeepHistory, Observer: cfg.Observer,
		Tracer:        cfg.Tracer,
		OnShardResize: p.onShardResize,
	})
	if err != nil {
		store.Close()
		return nil, Recovered{}, err
	}
	if err := fa.RestoreState(fed.PlaneState{Now: st.Now, Shards: st.Shards}); err != nil {
		store.Close()
		return nil, Recovered{}, fmt.Errorf("durable: restore plane: %w", err)
	}
	p.fed = fa
	if cfg.Shed != nil {
		// The shedder's own accounting (in-flight areas, fairness clocks)
		// is rebuilt empty at open: it is a rate controller, not durable
		// state.  Its refusals ARE durable — each is journaled before the
		// caller sees ErrShed.
		sc := *cfg.Shed
		inner := sc.Observer
		sc.Observer = func(d qos.ShedDecision) {
			p.lastShed = d
			if inner != nil {
				inner(d)
			}
		}
		shed, err := qos.NewShedder(planeInner{p}, sc)
		if err != nil {
			store.Close()
			return nil, Recovered{}, err
		}
		p.shed = shed
	}
	return p, rec, nil
}

// onShardResize journals a rebalancer capacity move.  It fires under the
// shard lock inside a plane-locked operation, so the record lands in the
// plane's decision order.
func (p *Plane) onShardResize(shard, procs int) {
	_, _ = p.store.Append(&Record{Kind: KindCapacity, Shard: shard, Procs: procs})
}

// SetTotalCapacity resizes the plane toward total processors
// under the plane lock, journaling one KindCapacity record per
// single-processor shard resize (the fed rebalancer's unit of work), so
// recovery reconstructs the exact post-resize shard shapes.  Growth
// always succeeds; shrink stops early when no shard can give up a
// processor without preempting a committed reservation, returning the
// achieved total alongside the shortfall error.
func (p *Plane) SetTotalCapacity(total int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return p.fed.Procs(), fmt.Errorf("durable: plane poisoned, reopen required: %w", err)
	}
	got, err := p.fed.Rebalancer().SetTotalCapacity(total)
	p.maybeSnapshotLocked()
	return got, err
}

// Rebalance runs up to maxMoves processor migrations (len(shards) when
// maxMoves <= 0) under the plane lock; every move journals its two
// shard resizes before the plane acknowledges anything else.
func (p *Plane) Rebalance(maxMoves int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return 0, fmt.Errorf("durable: plane poisoned, reopen required: %w", err)
	}
	moved := p.fed.Rebalancer().Rebalance(maxMoves)
	p.maybeSnapshotLocked()
	return moved, nil
}

// AttachBroker makes the durable plane's total capacity follow a
// resource broker's pool: every machine registration or deregistration
// resizes the plane to the broker's total (suppressed below threshold
// processors; 0 follows every change) and runs a rebalancing pass —
// with every resize journaled, so a crash between broker events
// recovers the exact capacity the live pool had.  The returned stop
// function detaches the subscription's effect (see
// resbroker.Broker.Follow).
func (p *Plane) AttachBroker(b *resbroker.Broker, threshold int) (stop func()) {
	return b.Follow(p.Procs(), threshold, func(procs int) {
		if _, err := p.SetTotalCapacity(procs); err != nil {
			return // partial shrink or poisoned plane; next event retries
		}
		_, _ = p.Rebalance(0)
	})
}

// Err returns the store's poison error, if any: non-nil means an append
// or snapshot failed, the in-memory plane may be ahead of the log, and
// the plane refuses further decisions until reopened.
func (p *Plane) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Poisoned()
}

// Negotiate runs admission control and journals the outcome.  A grant is
// returned only after its admit record reached the log (and stable
// storage, under SyncAlways); a failed append returns the append error
// and poisons the plane instead of acknowledging.
func (p *Plane) Negotiate(job core.Job) (*qos.Grant, error) {
	return p.NegotiateTimed(job, nil)
}

// NegotiateTimed is Negotiate with latency-phase attribution (rec may be
// nil): plane-lock acquisition counts as route, the wrapped arbitrator
// attributes its own phases, and the WAL append before acknowledgment is
// the journal phase.
func (p *Plane) NegotiateTimed(job core.Job, lrec *phase.Rec) (*qos.Grant, error) {
	p.mu.Lock()
	lrec.Mark(phase.Route)
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return nil, fmt.Errorf("durable: plane poisoned, reopen required: %w", err)
	}
	if p.shed == nil {
		return p.negotiateLocked(job, lrec)
	}
	p.lastShed = qos.ShedDecision{}
	p.rec = lrec
	g, err := p.shed.Negotiate(job)
	p.rec = nil
	if err != nil && errors.Is(err, qos.ErrShed) {
		rec := &Record{
			Kind: KindShed, JobID: job.ID,
			Tenant: job.Tenant, Class: job.Class,
			Reason: string(p.lastShed.Reason),
		}
		if _, aerr := p.store.Append(rec); aerr != nil {
			return nil, aerr
		}
		lrec.Mark(phase.Journal)
		p.maybeSnapshotLocked()
	}
	return g, err
}

func (p *Plane) negotiateLocked(job core.Job, lrec *phase.Rec) (*qos.Grant, error) {
	g, err := p.fed.NegotiateTimed(job, lrec)
	return p.journalLocked(&Record{JobID: job.ID, Tunable: job.Tunable(), Tenant: job.Tenant, Class: job.Class}, g, err, lrec)
}

// NegotiateDAG runs DAG admission control and journals the outcome
// exactly as Negotiate does: the scheduler counts DAG rejections too, so
// replay must see them to rebuild the same counters.
func (p *Plane) NegotiateDAG(job core.DAGJob) (*qos.Grant, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return nil, fmt.Errorf("durable: plane poisoned, reopen required: %w", err)
	}
	g, err := p.fed.NegotiateDAG(job)
	return p.journalLocked(&Record{JobID: job.ID, Tunable: len(job.Alts) > 1}, g, err, nil)
}

// journalLocked journals the outcome of the decision the arbitrator just
// made for the job r describes (JobID, Tunable, Tenant, Class): a grant
// as an admit record plus an entry in the live grant set, a rejection as
// a reject record; other errors (an invalid job) journal nothing.  A
// grant is returned only once its record reached the log; a failed
// append poisons the plane and the grant is never acknowledged.
func (p *Plane) journalLocked(r *Record, g *qos.Grant, err error, lrec *phase.Rec) (*qos.Grant, error) {
	switch {
	case err == nil:
		r.Kind, r.Shard, r.Chain, r.Quality, r.Tasks = KindAdmit, g.Shard, g.Chain, g.Quality, g.Placement.Tasks
		if _, aerr := p.store.Append(r); aerr != nil {
			return nil, fmt.Errorf("durable: grant %d committed in memory but not journaled (plane poisoned, reopen required): %w", g.JobID, aerr)
		}
		p.grants[g.JobID] = GrantRecord{
			JobID: g.JobID, Shard: g.Shard, Chain: g.Chain,
			Quality: g.Quality, Tunable: r.Tunable,
			Tenant: r.Tenant, Class: r.Class,
			Tasks: append([]core.TaskPlacement(nil), g.Placement.Tasks...),
		}
	case errors.Is(err, qos.ErrRejected):
		// Rejections count on shard 0 in the journal; per-shard
		// rejection attribution is diagnostics, not durable state (the
		// oracle compares plane-merged counters).
		r.Kind = KindReject
		if _, aerr := p.store.Append(r); aerr != nil {
			return nil, aerr
		}
	default:
		return nil, err
	}
	lrec.Mark(phase.Journal)
	p.maybeSnapshotLocked()
	return g, err
}

// Observe advances the plane's clock, journaling the advance so replay
// folds elapsed history at exactly the same points the live plane did.
func (p *Plane) Observe(now float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store.Poisoned() != nil || now <= p.now {
		return
	}
	p.now = now
	// Elapsed grants leave the live set exactly as recovery's Prune drops
	// them, so the live grant set and a recovered one always agree.
	for id, g := range p.grants {
		if g.Finish() <= now {
			delete(p.grants, id)
		}
	}
	p.shed.Observe(now)
	p.fed.Observe(now)
	if _, err := p.store.Append(&Record{Kind: KindObserve, Now: now}); err != nil {
		return
	}
	p.maybeSnapshotLocked()
}

// JobCompleted journals a granted reservation's completion and releases
// the shedder's in-flight accounting.  Unknown job IDs are a no-op
// (completions can race a snapshot that already pruned the grant).
func (p *Plane) JobCompleted(jobID int, now float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return err
	}
	g, ok := p.grants[jobID]
	if !ok {
		return nil
	}
	p.shed.JobCompleted(jobID, now)
	delete(p.grants, jobID)
	if _, err := p.store.Append(&Record{Kind: KindComplete, Shard: g.Shard, JobID: jobID, Finish: now}); err != nil {
		return err
	}
	p.maybeSnapshotLocked()
	return nil
}

// maybeSnapshotLocked compacts when enough records accumulated.  A
// snapshot failure poisons the store but never revokes an already
// journaled decision.
func (p *Plane) maybeSnapshotLocked() {
	if p.store.ShouldSnapshot() {
		st := p.exportStateLocked()
		_ = p.store.WriteSnapshot(&st)
	}
}

// Snapshot forces a compaction: current state written as the newest
// snapshot, log truncated behind it.
func (p *Plane) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Poisoned(); err != nil {
		return err
	}
	st := p.exportStateLocked()
	return p.store.WriteSnapshot(&st)
}

func (p *Plane) exportStateLocked() State {
	st := State{LSN: p.store.NextLSN() - 1, Now: p.now, Shards: p.fed.ExportState().Shards}
	st.Grants = make([]GrantRecord, 0, len(p.grants))
	for _, g := range p.grants {
		st.Grants = append(st.Grants, g)
	}
	sort.Slice(st.Grants, func(i, j int) bool { return st.Grants[i].JobID < st.Grants[j].JobID })
	return st
}

// ExportState returns the plane's current durable state (tests, oracles).
func (p *Plane) ExportState() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exportStateLocked()
}

// Grants returns the live committed grants, sorted by job ID.
func (p *Plane) Grants() []GrantRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]GrantRecord, 0, len(p.grants))
	for _, g := range p.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Stats returns the plane-wide scheduler counters.
func (p *Plane) Stats() core.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fed.Stats()
}

// Utilization returns reserved capacity as a fraction over [origin, horizon].
func (p *Plane) Utilization(origin, horizon float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fed.Utilization(origin, horizon)
}

// Now returns the last observed time.
func (p *Plane) Now() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.now
}

// Procs returns the plane's total processor count.
func (p *Plane) Procs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fed.Procs()
}

// DurableLSN returns the highest LSN known synced to stable storage.
func (p *Plane) DurableLSN() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.DurableLSN()
}

// Shedder returns the wrapped shedder, or nil.
func (p *Plane) Shedder() *qos.Shedder { return p.shed }

// Fed returns the wrapped federated arbitrator (one shard or many).
func (p *Plane) Fed() *fed.Arbitrator { return p.fed }

// Close closes the log.  Unsynced records follow the sync policy's fate;
// close does not imply fsync.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Close()
}
