package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"milan/internal/core"
	"milan/internal/qos"
)

func TestQuantile(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	sortDurations(s)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}, {0.011, 2}} {
		if got := quantile(s, c.q); got != c.want*time.Microsecond {
			t.Errorf("quantile(1..100 us, %v) = %v, want %v us", c.q, got, c.want)
		}
	}
	if got := quantile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// stallTarget answers every operation at once, except one negotiation
// that stalls for 50 ms.
type stallTarget struct {
	armed   time.Time
	stalled atomic.Bool
}

func (s *stallTarget) Negotiate(core.Job) (*qos.Grant, error) {
	if time.Now().After(s.armed) && s.stalled.CompareAndSwap(false, true) {
		time.Sleep(50 * time.Millisecond)
	}
	return nil, qos.ErrRejected
}
func (s *stallTarget) Observe(float64) error                     { return nil }
func (s *stallTarget) Stats() (core.Stats, error)                { return core.Stats{}, nil }
func (s *stallTarget) Utilization(_, _ float64) (float64, error) { return 0, nil }

// TestOpenLoopCountsStall checks for coordinated omission: one stall of
// 50 ms must inflate the latency of every request that fell due during
// it, not just the request that stalled.
func TestOpenLoopCountsStall(t *testing.T) {
	sp, err := findSpec("served-nosync")
	if err != nil {
		t.Fatal(err)
	}
	sp.startJobs = 0
	st := &stallTarget{armed: time.Now().Add(100 * time.Millisecond)}
	g := newGen(sp, 1, []target{st})
	r := g.open(800, 400*time.Millisecond, rand.New(rand.NewSource(1)))
	if !st.stalled.Load() {
		t.Fatal("the target never stalled")
	}
	slow := 0
	for _, x := range r.t.neg {
		if x.lat >= 10*time.Millisecond {
			slow++
		}
	}
	// About 800/s x 40 ms = 32 negotiations fell due at least 10 ms
	// before the stall ended; timing from the send would count one.
	if slow < 20 {
		t.Fatalf("%d negotiations took 10 ms or more; want the ~32 that fell due during the stall", slow)
	}
	if p99 := quantile(latencies(r.t.neg), 0.99); p99 < 30*time.Millisecond {
		t.Errorf("p99 = %v, want the stall to show in it", p99)
	}
}

func TestSustainedRate(t *testing.T) {
	ms := time.Millisecond
	rung := func(rate float64, p99 time.Duration, growing bool) rungStat {
		return rungStat{Offered: rate, P99: p99, Growing: growing}
	}
	for _, c := range []struct {
		name  string
		rungs []rungStat
		want  float64
	}{
		{"none pass", []rungStat{rung(100, 5*ms, false), rung(200, 9*ms, true)}, 0},
		{"top passes", []rungStat{rung(100, ms, false), rung(200, 2*ms, false)}, 200},
		{"interpolates on log p99", []rungStat{rung(100, ms, false), rung(200, 2*ms, false), rung(300, 8*ms, true)}, 250},
		{"backlog-only failure", []rungStat{rung(100, ms, false), rung(200, 2*ms, true)}, 100},
		{"highest passing rung wins", []rungStat{rung(100, 5*ms, false), rung(200, 3*ms, false), rung(300, 9*ms, true)}, 200 + 100*math.Log(4.0/3)/math.Log(3)},
	} {
		if got := sustainedRate(c.rungs, 4*ms); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("%s: sustainedRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Req: 1, Kind: spRequest, Start: 0, End: 100},
		{Req: 1, Kind: spRTT, Start: 10, End: 100},
		{Req: 1, Kind: spCall, Start: 30, End: 90},
		{Req: 1, Kind: spDecide, Start: 30, End: 40},
		{Req: 1, Kind: spFed, Start: 32, End: 38},
		{Req: 1, Kind: spWrite, Start: 45, End: 50},
		{Req: 1, Kind: spSync, Start: 50, End: 80},
		{Req: -1, Kind: spSync, Start: 95, End: 99}, // no request owns it
		{Req: 2, Kind: spCall, Start: 0, End: 10},   // no root: not counted
	}
	self, roots, total, residual := selfTimes(spans)
	want := map[uint8]int64{spRequest: 10, spRTT: 30, spCall: 15, spDecide: 4, spFed: 6, spWrite: 5, spSync: 30}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self(%s) = %d, want %d", spanNames[k], self[k], w)
		}
	}
	if roots != 1 || total != 100 || residual != 0 {
		t.Errorf("roots, total, residual = %d, %d, %d; want 1, 100, 0", roots, total, residual)
	}

	// Children that overlap count once; a child sticking out of its
	// parent is clipped, and what it adds shows as residual.
	spans = []span{
		{Req: 3, Kind: spRequest, Start: 0, End: 100},
		{Req: 3, Kind: spFed, Start: 10, End: 60},
		{Req: 3, Kind: spFed, Start: 40, End: 70},
		{Req: 3, Kind: spFed, Start: 80, End: 120},
	}
	self, _, _, residual = selfTimes(spans)
	if self[spRequest] != 20 || self[spFed] != 50+30+40 || residual != -40 {
		t.Errorf("overlap: self request %d fed %d residual %d; want 20, 120, -40", self[spRequest], self[spFed], residual)
	}
}

func TestCheckGrant(t *testing.T) {
	job := fig4Job(7, 100)
	d1, _ := fig4.Deadlines(100)
	good := &qos.Grant{JobID: 7, Chain: 0, Placement: core.Placement{Tasks: []core.TaskPlacement{
		{Task: 0, Start: 100, Finish: 125, Procs: 16},
		{Task: 1, Start: 125, Finish: 225, Procs: 4},
	}}}
	if err := checkGrant(job, good); err != nil {
		t.Fatalf("valid grant rejected: %v", err)
	}
	late := *good
	late.Placement.Tasks = []core.TaskPlacement{
		{Task: 0, Start: d1 - 20, Finish: d1 + 5, Procs: 16},
		{Task: 1, Start: d1 + 5, Finish: d1 + 105, Procs: 4},
	}
	if err := checkGrant(job, &late); err == nil {
		t.Error("grant finishing task A after its deadline passed the check")
	}
	early := *good
	early.Placement.Tasks = []core.TaskPlacement{
		{Task: 0, Start: 99, Finish: 124, Procs: 16},
		{Task: 1, Start: 124, Finish: 224, Procs: 4},
	}
	if err := checkGrant(job, &early); err == nil {
		t.Error("grant starting before the release passed the check")
	}
}
