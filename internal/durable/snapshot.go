package durable

import (
	"fmt"
	"sort"

	"milan/internal/core"
)

// GrantRecord is one live committed grant in the durable state: everything
// needed to account for the grant after recovery (and to prove none was
// lost).  The reservation itself lives in the shard profiles; the grant
// set is bookkeeping over it.
type GrantRecord struct {
	JobID   int
	Shard   int
	Chain   int
	Quality float64
	Tunable bool
	Tenant  string
	Class   int
	Tasks   []core.TaskPlacement
}

// Finish returns the grant's reservation finish time (the latest task
// finish).
func (g *GrantRecord) Finish() float64 {
	var f float64
	for i, tp := range g.Tasks {
		if i == 0 || tp.Finish > f {
			f = tp.Finish
		}
	}
	return f
}

// State is the complete durable state of an admission plane at one log
// position: the clock, every shard's scheduler state and the set of live
// grants (committed reservations that have not completed).
type State struct {
	// LSN is the last log record reflected in this state (0 = genesis).
	LSN uint64
	// Now is the plane's observed clock.
	Now float64
	// Shards holds one scheduler state per shard (one entry for the
	// monolith).
	Shards []core.SchedulerState
	// Grants is the live grant set, sorted by job ID.
	Grants []GrantRecord
}

// Genesis returns the empty state of a plane with procs processors split
// across `shards` partitions from time origin — exactly fed.New's
// partition (the first procs mod shards shards hold one extra), so a
// recovered plane and a fresh one agree on shard shapes.
func Genesis(procs, shards int, origin float64) (State, error) {
	if procs < 1 {
		return State{}, fmt.Errorf("durable: genesis needs at least 1 processor, got %d", procs)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > procs {
		return State{}, fmt.Errorf("durable: %d shards for %d processors", shards, procs)
	}
	st := State{Shards: make([]core.SchedulerState, shards), Now: origin}
	base, rem := procs/shards, procs%shards
	for i := 0; i < shards; i++ {
		p := base
		if i < rem {
			p++
		}
		st.Shards[i] = core.SchedulerState{Profile: core.ProfileState{
			Capacity: p,
			Times:    []float64{origin},
			Used:     []int{0},
		}}
	}
	return st, nil
}

// Prune drops grants whose reservations have fully elapsed (finish at or
// before Now) and sorts the survivors by job ID.  Called before every
// snapshot so the grant set stays bounded by concurrency, not by history.
func (s *State) Prune() {
	s.dropElapsed()
	sort.Slice(s.Grants, func(i, j int) bool { return s.Grants[i].JobID < s.Grants[j].JobID })
}

// dropElapsed drops grants whose reservations have fully elapsed, keeping
// the survivors in order.
func (s *State) dropElapsed() {
	live := s.Grants[:0]
	for _, g := range s.Grants {
		if g.Finish() > s.Now {
			live = append(live, g)
		}
	}
	clear(s.Grants[len(live):]) // release the dropped grants' task slices
	s.Grants = live
}

// Procs returns the plane's total processor count.
func (s *State) Procs() int {
	total := 0
	for _, sh := range s.Shards {
		total += sh.Profile.Capacity
	}
	return total
}

const (
	maxShards   = 1 << 12
	maxSegments = 1 << 22
	maxGrants   = 1 << 22
)

// EncodeSnapshot serializes a state as a snapshot payload (no framing, no
// file header — the store frames it).
func EncodeSnapshot(st *State) []byte {
	b := make([]byte, 0, 256)
	b = appendUint64(b, st.LSN)
	b = appendFloat(b, st.Now)
	b = appendUint32(b, uint32(len(st.Shards)))
	for _, sh := range st.Shards {
		b = appendUint32(b, uint32(sh.Profile.Capacity))
		b = appendFloat(b, sh.Profile.TrimmedBusy)
		b = appendUint32(b, uint32(len(sh.Profile.Times)))
		for _, t := range sh.Profile.Times {
			b = appendFloat(b, t)
		}
		for _, u := range sh.Profile.Used {
			b = appendUint32(b, uint32(u))
		}
		b = appendUint64(b, uint64(int64(sh.Stats.Admitted)))
		b = appendUint64(b, uint64(int64(sh.Stats.Rejected)))
		b = appendFloat(b, sh.Stats.ReservedArea)
		b = appendFloat(b, sh.Stats.QualitySum)
		b = appendUint64(b, uint64(int64(sh.Stats.ChainsTried)))
		b = appendUint64(b, uint64(int64(sh.Stats.HolesProbed)))
		b = appendUint64(b, uint64(int64(sh.Stats.PlanFailures)))
		b = appendUint32(b, uint32(len(sh.Stats.TunableChosen)))
		for _, n := range sh.Stats.TunableChosen {
			b = appendUint64(b, uint64(int64(n)))
		}
	}
	b = appendUint32(b, uint32(len(st.Grants)))
	for i := range st.Grants {
		g := &st.Grants[i]
		b = appendUint32(b, uint32(g.Shard))
		b = appendUint64(b, uint64(int64(g.JobID)))
		b = appendUint32(b, uint32(g.Chain))
		b = appendFloat(b, g.Quality)
		b = appendBool(b, g.Tunable)
		b = appendString(b, g.Tenant)
		b = appendUint32(b, uint32(int32(g.Class)))
		b = appendTasks(b, g.Tasks)
	}
	return b
}

// DecodeSnapshot parses a snapshot payload.  Any corruption — truncation,
// insane counts, trailing bytes — returns an error; no input may panic
// (the fuzz target pins this).  Structural validity of the profiles is
// checked later, by core.ProfileFromState, when the state is restored.
func DecodeSnapshot(payload []byte) (State, error) {
	c := &cursor{b: payload}
	var st State
	st.LSN = c.u64()
	st.Now = c.f64()
	nsh := c.u32()
	if nsh > maxShards {
		return State{}, fmt.Errorf("durable: snapshot shard count %d exceeds limit", nsh)
	}
	for i := uint32(0); i < nsh && c.err == nil; i++ {
		var sh core.SchedulerState
		sh.Profile.Capacity = int(int32(c.u32()))
		sh.Profile.TrimmedBusy = c.f64()
		nseg := c.u32()
		if nseg > maxSegments || (c.err == nil && int(nseg)*12 > len(c.b)-c.off) {
			return State{}, fmt.Errorf("durable: snapshot segment count %d exceeds payload", nseg)
		}
		sh.Profile.Times = make([]float64, 0, nseg)
		for j := uint32(0); j < nseg && c.err == nil; j++ {
			sh.Profile.Times = append(sh.Profile.Times, c.f64())
		}
		sh.Profile.Used = make([]int, 0, nseg)
		for j := uint32(0); j < nseg && c.err == nil; j++ {
			sh.Profile.Used = append(sh.Profile.Used, int(int32(c.u32())))
		}
		sh.Stats.Admitted = int(int64(c.u64()))
		sh.Stats.Rejected = int(int64(c.u64()))
		sh.Stats.ReservedArea = c.f64()
		sh.Stats.QualitySum = c.f64()
		sh.Stats.ChainsTried = int(int64(c.u64()))
		sh.Stats.HolesProbed = int(int64(c.u64()))
		sh.Stats.PlanFailures = int(int64(c.u64()))
		ntc := c.u32()
		if ntc > maxStringLen || (c.err == nil && int(ntc)*8 > len(c.b)-c.off) {
			return State{}, fmt.Errorf("durable: snapshot tunable-chosen count %d exceeds payload", ntc)
		}
		for j := uint32(0); j < ntc && c.err == nil; j++ {
			sh.Stats.TunableChosen = append(sh.Stats.TunableChosen, int(int64(c.u64())))
		}
		st.Shards = append(st.Shards, sh)
	}
	ng := c.u32()
	if ng > maxGrants || (c.err == nil && int(ng)*25 > len(c.b)-c.off) {
		return State{}, fmt.Errorf("durable: snapshot grant count %d exceeds payload", ng)
	}
	for i := uint32(0); i < ng && c.err == nil; i++ {
		var g GrantRecord
		g.Shard = int(int32(c.u32()))
		g.JobID = int(int64(c.u64()))
		g.Chain = int(int32(c.u32()))
		g.Quality = c.f64()
		g.Tunable = c.boolean()
		g.Tenant = c.str()
		g.Class = int(int32(c.u32()))
		g.Tasks = c.tasks()
		st.Grants = append(st.Grants, g)
	}
	if c.err != nil {
		return State{}, c.err
	}
	if c.off != len(payload) {
		return State{}, fmt.Errorf("durable: %d trailing bytes after snapshot", len(payload)-c.off)
	}
	return st, nil
}
