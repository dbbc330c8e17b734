package durable

import (
	"bytes"
	"io"
	"path/filepath"
	"sort"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
)

// livePlane mirrors what a never-crashed Plane holds for a sequence of
// journaled decisions: indexed schedulers (the live arbitrators' default)
// and a grant map that Observe prunes and a completion deletes from, as
// Plane.Observe and Plane.JobCompleted do.  Recovery must reproduce its
// state exactly.
type livePlane struct {
	now    float64
	scheds []*core.Scheduler
	grants map[int]GrantRecord
}

func newLivePlane(t *testing.T, gen State) *livePlane {
	t.Helper()
	lp := &livePlane{now: gen.Now, grants: map[int]GrantRecord{}}
	for _, sh := range gen.Shards {
		sc := core.NewScheduler(sh.Profile.Capacity, gen.Now, nil)
		if err := sc.RestoreState(sh); err != nil {
			t.Fatal(err)
		}
		lp.scheds = append(lp.scheds, sc)
	}
	return lp
}

func (lp *livePlane) do(t *testing.T, r *Record) {
	t.Helper()
	var err error
	switch r.Kind {
	case KindObserve:
		if r.Now > lp.now {
			lp.now = r.Now
			for id, g := range lp.grants {
				if g.Finish() <= r.Now {
					delete(lp.grants, id)
				}
			}
			for _, sc := range lp.scheds {
				sc.Observe(r.Now)
			}
		}
	case KindAdmit, KindRenegotiate:
		pl := &core.Placement{JobID: r.JobID, Chain: r.Chain, Tasks: r.Tasks}
		err = lp.scheds[r.Shard].ReplayCommit(pl, r.Quality, r.Tunable)
		lp.grants[r.JobID] = GrantRecord{
			JobID: r.JobID, Shard: r.Shard, Chain: r.Chain, Quality: r.Quality,
			Tunable: r.Tunable, Tenant: r.Tenant, Class: r.Class,
			Tasks: append([]core.TaskPlacement(nil), r.Tasks...),
		}
	case KindCapacity:
		err = lp.scheds[r.Shard].SetCapacity(r.Procs)
	case KindReject:
		lp.scheds[r.Shard].ReplayRejected()
	case KindComplete:
		delete(lp.grants, r.JobID) // unknown (already pruned) IDs are a no-op
	}
	if err != nil {
		t.Fatalf("live %s job %d: %v", r.Kind, r.JobID, err)
	}
}

func (lp *livePlane) state(lsn uint64) State {
	st := State{LSN: lsn, Now: lp.now}
	for _, sc := range lp.scheds {
		st.Shards = append(st.Shards, sc.ExportState())
	}
	for _, g := range lp.grants {
		st.Grants = append(st.Grants, g)
	}
	sort.Slice(st.Grants, func(i, j int) bool { return st.Grants[i].JobID < st.Grants[j].JobID })
	return st
}

func onTask(procs int, start, finish float64) []core.TaskPlacement {
	return []core.TaskPlacement{{Task: 0, Procs: procs, Start: start, Finish: finish}}
}

// TestRecoverMatchesLivePlaneAcrossPruneEdges: recovery prunes grants at
// every replayed observe, so records that name a grant pruned earlier must
// still recover to exactly what the never-crashed plane holds — and a torn
// final frame must cost only itself.
func TestRecoverMatchesLivePlaneAcrossPruneEdges(t *testing.T) {
	mem := vfs.NewMem()
	gen, err := Genesis(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(OpenConfig{FS: mem, Dir: "log", Genesis: gen})
	if err != nil {
		t.Fatal(err)
	}
	ops := []Record{
		{Kind: KindAdmit, Shard: 0, JobID: 1, Chain: 1, Quality: 1, Tunable: true, Tenant: "acme", Tasks: onTask(2, 0, 5)},
		{Kind: KindAdmit, Shard: 1, JobID: 2, Quality: 0.5, Tasks: onTask(1, 0, 20)},
		{Kind: KindAdmit, Shard: 0, JobID: 3, Quality: 0.75, Tasks: onTask(1, 1, 30)},
		{Kind: KindAdmit, Shard: 1, JobID: 4, Quality: 1, Tasks: onTask(2, 0, 8)},
		{Kind: KindObserve, Now: 10}, // jobs 1 and 4 elapse
		// Renegotiating a grant that already elapsed brings it back.
		{Kind: KindRenegotiate, Shard: 0, JobID: 1, Chain: 0, Quality: 0.5, Tunable: true, Tenant: "acme", Tasks: onTask(1, 12, 25)},
		{Kind: KindComplete, Shard: 1, JobID: 2, Finish: 11},
		// Completing a grant that was already pruned changes nothing.
		{Kind: KindComplete, Shard: 1, JobID: 4, Finish: 8},
		{Kind: KindCapacity, Shard: 1, Procs: 6},
		{Kind: KindReject, Shard: 1, JobID: 5},
		{Kind: KindAdmit, Shard: 1, JobID: 6, Quality: 1, Tasks: onTask(5, 12, 16)}, // needs the resize
		{Kind: KindObserve, Now: 19},                                                // job 6 elapses
		{Kind: KindAdmit, Shard: 0, JobID: 7, Quality: 1, Tasks: onTask(2, 19, 40)},
	}
	live := newLivePlane(t, gen)
	for i := range ops {
		if _, err := s.Append(&ops[i]); err != nil {
			t.Fatal(err)
		}
		live.do(t, &ops[i])
	}
	s.Close()

	// Tear the final frame: half of one more admit record.
	torn := Record{Kind: KindAdmit, LSN: uint64(len(ops) + 1), Shard: 0, JobID: 8, Quality: 1, Tasks: onTask(1, 20, 21)}
	var frame bytes.Buffer
	if _, err := writeFrame(&frame, EncodeRecord(&torn)); err != nil {
		t.Fatal(err)
	}
	f, err := mem.OpenAppend(filepath.Join("log", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(OpenConfig{FS: mem, Dir: "log", Genesis: gen})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn || rec.Records != len(ops) || rec.State.LSN != uint64(len(ops)) {
		t.Fatalf("recovered records=%d lsn=%d torn=%v, want the %d-record prefix, torn",
			rec.Records, rec.State.LSN, rec.Torn, len(ops))
	}
	want := live.state(uint64(len(ops)))
	if err := DiffStates(&rec.State, &want); err != nil {
		t.Fatalf("recovered state diverges from the live plane: %v", err)
	}
	if ids := grantIDs(rec.State.Grants); len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 7 {
		t.Fatalf("recovered grants %v, want [1 3 7]", ids)
	}
}

func grantIDs(gs []GrantRecord) []int {
	ids := make([]int, len(gs))
	for i, g := range gs {
		ids[i] = g.JobID
	}
	return ids
}

// validPrefix is the reference framing rule recovery must follow on one
// segment starting at LSN 1: frames are taken in order until one is torn,
// fails its checksum or decode, or skips an LSN; frames whose LSN is
// already covered are passed over.
func validPrefix(data []byte) (recs []Record, torn bool) {
	r := bytes.NewReader(data)
	expect := uint64(1)
	for {
		payload, err := readFrame(r, nil)
		if err == io.EOF {
			return recs, false
		}
		if err != nil {
			return recs, true
		}
		rec, err := DecodeRecord(payload)
		if err != nil || rec.LSN > expect {
			return recs, true
		}
		if rec.LSN < expect {
			continue
		}
		recs = append(recs, rec)
		expect++
	}
}

// TestRecoverRejectsOutOfRangeChain: a checksummed admit record whose chain
// index cannot size the per-chain counters fails Open with an error rather
// than a panic or a huge allocation.
func TestRecoverRejectsOutOfRangeChain(t *testing.T) {
	for _, chain := range []int{-1, core.MaxChains} {
		mem := vfs.NewMem()
		gen, err := Genesis(8, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := Open(OpenConfig{FS: mem, Dir: "log", Genesis: gen})
		if err != nil {
			t.Fatal(err)
		}
		bad := Record{Kind: KindAdmit, JobID: 1, Chain: chain, Quality: 1, Tunable: true, Tasks: onTask(1, 0, 1)}
		if _, err := s.Append(&bad); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, _, err := Open(OpenConfig{FS: mem, Dir: "log", Genesis: gen}); err == nil {
			t.Fatalf("chain %d: Open recovered a record it cannot apply", chain)
		}
	}
}
