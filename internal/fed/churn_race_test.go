package fed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"milan/internal/resbroker"
)

// TestRebalancerBrokerChurnRace hammers the plane from both sides at
// once: admissions negotiate a Figure-4 stream while broker churn
// goroutines flood register/withdraw events that resize the plane through
// AttachBroker.  Run under -race this is the data-race probe for the
// rebalancer's pool-following path; the post-churn assertions pin the
// structural invariants — no shard profile over-admits, capacity settles
// to exactly the surviving pool, and no shard is starved below the floor.
func TestRebalancerBrokerChurnRace(t *testing.T) {
	const (
		procs    = 32
		machines = 8
		churners = 4
		flips    = 50
	)

	plane, err := New(Config{Procs: procs, Shards: 4, ProbeK: 2})
	if err != nil {
		t.Fatal(err)
	}
	rb := plane.Rebalancer()

	broker := resbroker.New(nil)
	for i := 0; i < machines; i++ {
		if err := broker.Register(resbroker.Resource{
			ID:    fmt.Sprintf("base-%d", i),
			Procs: procs / machines,
			Speed: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := rb.AttachBroker(broker, 0)
	defer stop()

	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup

	// Admission side: one clock owner negotiating a paced overload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, job := range smallStream(400, 2, 99) {
			plane.Observe(job.Release)
			rb.Rebalance(1)
			if _, err := plane.Negotiate(job); err == nil {
				admitted.Add(1)
			} else {
				rejected.Add(1)
			}
		}
	}()

	// Churn side: transient machines flapping in and out of the pool
	// while admissions run.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < flips; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i)
				if err := broker.Register(resbroker.Resource{ID: id, Procs: 4, Speed: 1}); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if err := broker.Deregister(id); err != nil {
					t.Errorf("deregister %s: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if admitted.Load() == 0 {
		t.Fatal("no job admitted during churn; the race window was never exercised")
	}
	if rejected.Load() == 0 {
		t.Fatal("no job rejected during churn; the stream did not stress capacity")
	}

	// Quiesce: every transient machine has withdrawn, so the plane must
	// settle back to exactly the base pool.  Advance past every possible
	// reservation first so shrink headroom cannot race with history.
	plane.Observe(1e9)
	want := broker.TotalProcs()
	if want != procs {
		t.Fatalf("broker pool ended at %d procs, want %d — churn leaked machines", want, procs)
	}
	if got, err := rb.SetTotalCapacity(want); err != nil || got != want {
		t.Fatalf("settle to %d procs: got %d, err %v", want, got, err)
	}

	total := 0
	for i, p := range plane.ShardProcs() {
		total += p
		if p < 1 {
			t.Errorf("shard %d starved to %d processors", i, p)
		}
	}
	if total != want {
		t.Errorf("plane holds %d processors, pool holds %d — capacity not conserved", total, want)
	}
	// CheckInvariants re-validates every shard profile: admission during
	// a shrink must never leave a shard holding more reserved work than
	// processors (the over-admission probe).
	if err := plane.CheckInvariants(); err != nil {
		t.Errorf("post-churn invariants: %v", err)
	}
}

// TestAttachBrokerStopDetaches pins the detach contract under load: after
// stop() the plane must ignore further pool changes.
func TestAttachBrokerStopDetaches(t *testing.T) {
	plane, err := New(Config{Procs: 16, Shards: 2, ProbeK: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb := plane.Rebalancer()
	broker := resbroker.New(nil)
	for i := 0; i < 2; i++ {
		if err := broker.Register(resbroker.Resource{ID: fmt.Sprintf("m%d", i), Procs: 8, Speed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	stop := rb.AttachBroker(broker, 0)
	if err := broker.Register(resbroker.Resource{ID: "grow", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != 24 {
		t.Fatalf("attached plane at %d procs, want 24", got)
	}
	stop()
	if err := broker.Register(resbroker.Resource{ID: "late", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != 24 {
		t.Fatalf("detached plane resized to %d procs", got)
	}
}

// TestAttachBrokerStopRacesChurn: stop() may be called from any goroutine
// while the broker is still delivering pool events.  Run under -race this
// is the probe for the detach flag (a plain bool written by stop and read
// by the delivering goroutine was a data race); afterwards the plane must
// ignore further pool changes.
func TestAttachBrokerStopRacesChurn(t *testing.T) {
	plane, err := New(Config{Procs: 16, Shards: 2, ProbeK: 1})
	if err != nil {
		t.Fatal(err)
	}
	broker := resbroker.New(nil)
	if err := broker.Register(resbroker.Resource{ID: "base", Procs: 16, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	stop := plane.Rebalancer().AttachBroker(broker, 0)

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("churn-%d", c)
			for i := 0; i < 50; i++ {
				if err := broker.Register(resbroker.Resource{ID: id, Procs: 2, Speed: 1}); err != nil {
					t.Error(err)
					return
				}
				if err := broker.Deregister(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		stop()
	}()
	wg.Wait()

	before := plane.Procs()
	if err := broker.Register(resbroker.Resource{ID: "late", Procs: 8, Speed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := plane.Procs(); got != before {
		t.Fatalf("detached plane resized from %d to %d procs", before, got)
	}
}
