package durable

import (
	"fmt"
	"testing"

	"milan/internal/durable/vfs"
	"milan/internal/resbroker"
)

// TestPlaneSetTotalCapacityJournaled: every single-processor resize is a
// journaled record, and a reopened plane recovers the exact post-resize
// shard shapes — on a one-shard plane as on a sharded one.
func TestPlaneSetTotalCapacityJournaled(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mem := vfs.NewMem()
		p, _ := openPlane(t, mem, shards, StoreOptions{})

		before := p.DurableLSN()
		got, err := p.SetTotalCapacity(24)
		if err != nil || got != 24 {
			t.Fatalf("shards=%d: SetTotalCapacity(24) = %d, %v", shards, got, err)
		}
		if p.Fed().Procs() != 24 {
			t.Fatalf("shards=%d: live procs = %d, want 24", shards, p.Fed().Procs())
		}
		// Growth from 16 to 24 is 8 single-processor resizes = 8 records.
		if appended := p.DurableLSN() - before; appended != 8 {
			t.Fatalf("shards=%d: grow by 8 appended %d records, want 8", shards, appended)
		}

		// Shrink with no reservations succeeds and journals too.
		if got, err = p.SetTotalCapacity(20); err != nil || got != 20 {
			t.Fatalf("shards=%d: SetTotalCapacity(20) = %d, %v", shards, got, err)
		}

		want := p.ExportState()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		p2, _ := openPlane(t, mem, shards, StoreOptions{})
		if p2.Fed().Procs() != 20 {
			t.Fatalf("shards=%d: recovered procs = %d, want 20", shards, p2.Fed().Procs())
		}
		gotSt := p2.ExportState()
		if err := DiffStates(&gotSt, &want); err != nil {
			t.Fatalf("shards=%d: recovered state diverged after capacity churn: %v", shards, err)
		}
		p2.Close()
	}
}

// TestPlaneBrokerCapacityRecovered: the ROADMAP-item-1 gap — broker pool
// churn must flow through the journal, so a crashed-and-recovered plane
// reports exactly the live pool's capacity.
func TestPlaneBrokerCapacityRecovered(t *testing.T) {
	mem := vfs.NewMem()
	p, _ := openPlane(t, mem, 2, StoreOptions{Sync: SyncAlways})

	broker := resbroker.New(nil)
	// Seed the pool at the plane's current size so the follower starts
	// aligned (AttachBroker tracks deltas from the attach point).
	if err := broker.Register(resbroker.Resource{ID: "seed", Procs: 16, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	stop := p.AttachBroker(broker, 0)
	defer stop()

	// Churn: machines join and leave; the plane follows every change.
	for i := 0; i < 3; i++ {
		if err := broker.Register(resbroker.Resource{ID: fmt.Sprintf("m%d", i), Procs: 4, Speed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := broker.Deregister("m1"); err != nil {
		t.Fatal(err)
	}
	wantProcs := broker.TotalProcs()
	if p.Fed().Procs() != wantProcs {
		t.Fatalf("live plane procs = %d, broker pool = %d", p.Fed().Procs(), wantProcs)
	}

	// Interleave admissions so capacity records sit between decisions.
	drive(t, p.Observe, p.Negotiate, planeStream(40, 3))

	// Hard crash (no Close): recovery must reconstruct the pool-following
	// capacity from the journal alone.
	want := p.ExportState()
	mem.Crash()
	p2, _ := openPlane(t, mem, 2, StoreOptions{})
	defer p2.Close()
	if got := p2.Fed().Procs(); got != wantProcs {
		t.Fatalf("recovered capacity = %d, live broker pool = %d", got, wantProcs)
	}
	gotSt := p2.ExportState()
	if err := DiffStates(&gotSt, &want); err != nil {
		t.Fatalf("recovered state diverged from pre-crash plane: %v", err)
	}
}
