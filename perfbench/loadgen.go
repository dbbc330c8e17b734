package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"milan/internal/core"
	"milan/internal/qos"
)

// target is one load-generator connection to the admission plane: a qosnet
// client, or the in-process federated arbitrator.
type target interface {
	Negotiate(job core.Job) (*qos.Grant, error)
	Observe(now float64) error
	Stats() (core.Stats, error)
	Utilization(origin, horizon float64) (float64, error)
}

// sample is one operation: when it completed, counted from the
// generator's epoch, and its latency.
type sample struct{ at, lat time.Duration }

// latencies returns the samples' latencies, sorted.
func latencies(s []sample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	sortDurations(out)
	return out
}

// tally is what one worker saw over one phase.
type tally struct {
	neg      []sample // open loop: latency from the intended send time; closed: from the call
	reads    []sample
	lag      []time.Duration // how late the generator sent a request that was due in the future
	spans    []span          // loadgen.request and qosnet.rtt, when tracing
	sent     int             // operations sent, observes included
	failed   int             // operations that returned an error
	badGrant int             // grants that failed checkGrant
	admitted int
	rejected int
	backlog  int // most operations due but not yet sent, seen at a send
	firstErr error
}

func (t *tally) merge(o tally) {
	t.neg = append(t.neg, o.neg...)
	t.reads = append(t.reads, o.reads...)
	t.lag = append(t.lag, o.lag...)
	t.spans = append(t.spans, o.spans...)
	t.sent += o.sent
	t.failed += o.failed
	t.badGrant += o.badGrant
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.backlog = max(t.backlog, o.backlog)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// gen drives one workload's operation mix through its targets: four
// negotiations, then a read (Stats and Utilization in turn), with an
// Observe after every spec.observeEvery-th job.
type gen struct {
	sp      spec
	targets []target
	jobs    *stream
	epoch   time.Time    // sample times count from here
	ops     atomic.Int64 // operation sequence number across phases
	trace   bool         // record loadgen.request (and, served, qosnet.rtt) spans
}

// maxSpans bounds the client-side spans a traced run keeps in memory.
const maxSpans = 400_000

func newGen(sp spec, seed int64, targets []target) *gen {
	g := &gen{sp: sp, targets: targets, jobs: newStream(sp, seed), epoch: time.Now()}
	for i := 0; i < sp.startJobs; i++ {
		g.jobs.Next() // the starting state the plane recovered holds these
	}
	return g
}

// do performs operation k on target tg.  due is when the operation was
// meant to be sent; latency counts from there.
func (g *gen) do(tg target, t *tally, k int64, due time.Time) {
	t.sent++
	if k%(readsPer+1) == readsPer {
		var err error
		if (k/(readsPer+1))%2 == 0 {
			_, err = tg.Stats()
		} else {
			_, err = tg.Utilization(0, g.jobs.LastRelease())
		}
		now := time.Now()
		lat := now.Sub(due)
		if err != nil {
			t.fail(err)
			lat = failedLatency
		}
		t.reads = append(t.reads, sample{at: now.Sub(g.epoch), lat: lat})
		return
	}
	job, observe := g.jobs.Next()
	sendAt := time.Now()
	grant, err := tg.Negotiate(job)
	done := time.Now()
	lat := done.Sub(due)
	switch {
	case err == nil:
		t.admitted++
		if cerr := checkGrant(job, grant); cerr != nil {
			t.badGrant++
			if t.firstErr == nil {
				t.firstErr = cerr
			}
		}
	case errors.Is(err, qos.ErrRejected):
		t.rejected++
	default:
		t.fail(err)
		lat = failedLatency
	}
	t.neg = append(t.neg, sample{at: done.Sub(g.epoch), lat: lat})
	if g.trace && len(t.spans)+2 <= maxSpans/len(g.targets) {
		id := int64(job.ID)
		t.spans = append(t.spans, span{Req: id, Kind: spRequest, Start: due.UnixNano(), End: done.UnixNano()})
		if g.sp.served {
			t.spans = append(t.spans, span{Req: id, Kind: spRTT, Start: sendAt.UnixNano(), End: done.UnixNano()})
		}
	}
	if observe > 0 {
		t.sent++
		if err := tg.Observe(observe); err != nil {
			t.fail(err)
		}
	}
}

// warm sends n operations closed loop from every target so connections,
// codecs and the plane's first snapshot cycle are past before timing.
func (g *gen) warm(n int) tally {
	return g.each(func(tg target) tally {
		var t tally
		for g.ops.Load() < int64(n) {
			k := g.ops.Add(1) - 1
			g.do(tg, &t, k, time.Now())
		}
		// Every connection issues each kind of operation at least once
		// (k only selects the kind).
		for k := int64(0); k < 2*(readsPer+1); k++ {
			g.do(tg, &t, k, time.Now())
		}
		return t
	})
}

// tail sends n negotiations in a row from the first target, untimed.
func (g *gen) tail(n int) tally {
	var t tally
	for i := 0; i < n; i++ {
		g.do(g.targets[0], &t, 0, time.Now())
	}
	return t
}

// closed runs every target closed loop for d: each sends its next
// operation when the previous one returns.  Latency counts from the call.
func (g *gen) closed(d time.Duration) (tally, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	t := g.each(func(tg target) tally {
		var t tally
		for time.Now().Before(end) {
			g.do(tg, &t, g.ops.Add(1)-1, time.Now())
		}
		return t
	})
	return t, time.Since(start)
}

// rung is one open-loop phase at a fixed offered rate.
type rung struct {
	dur     time.Duration
	dueNeg  int // negotiations that fell due
	unsent  int // operations still unsent when the rung ended
	t       tally
	p50     time.Duration
	p99     time.Duration
	growing bool
}

func (r rung) stat() rungStat {
	return rungStat{Offered: float64(r.dueNeg) / r.dur.Seconds(), P99: r.p99, Growing: r.growing}
}

// open runs every target open loop for d at rate negotiations per second
// (reads on top, in the operation mix): arrivals follow a Poisson process
// drawn from rng, each target sends the next due operation as soon as it
// is free, and every latency counts from the operation's intended send
// time, so a stall delays the requests that fell due during it.
func (g *gen) open(rate float64, d time.Duration, rng *rand.Rand) rung {
	opsRate := rate * (readsPer + 1) / readsPer
	var arr []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / opsRate * float64(time.Second))
		if at >= d {
			break
		}
		arr = append(arr, at)
	}
	base := g.ops.Load()
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	t := g.each(func(tg target) tally {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		var t tally
		for {
			i := int(next.Add(1) - 1)
			if i >= len(arr) {
				return t
			}
			due := start.Add(arr[i])
			now := time.Now()
			if !now.Before(end) {
				return t
			}
			if now.Before(due) {
				sleepUntil(due)
				t.lag = append(t.lag, time.Since(due))
			} else {
				late := sort.Search(len(arr), func(j int) bool { return start.Add(arr[j]).After(now) })
				t.backlog = max(t.backlog, late-i)
			}
			g.do(tg, &t, base+int64(i), due)
		}
	})
	g.ops.Store(base + int64(len(arr)))
	r := rung{dur: d, t: t}
	for i := range arr {
		if (base+int64(i))%(readsPer+1) != readsPer {
			r.dueNeg++
		}
	}
	sent := t.sent - observes(t)
	r.unsent = len(arr) - sent
	r.p50 = quantile(latencies(t.neg), 0.50)
	_, p99s := windowed(t.neg, start.Sub(g.epoch), d/windows, windows, 0.99)
	r.p99 = time.Duration(median(p99s))
	// Below capacity the queue drains between bursts; above it, the work
	// left unsent at the end grows with the rung.  The margin keeps one
	// stall of the host just before the end from counting.
	r.growing = r.unsent > 10+len(arr)/20
	return r
}

// observes counts the Observe calls in a tally: sent minus negotiations
// and reads (failed reads and negotiations are still sent).
func observes(t tally) int {
	return t.sent - len(t.neg) - len(t.reads)
}

// each runs fn once per target concurrently and merges what they saw.
func (g *gen) each(fn func(tg target) tally) tally {
	out := make([]tally, len(g.targets))
	var wg sync.WaitGroup
	for i, tg := range g.targets {
		wg.Add(1)
		go func(i int, tg target) {
			defer wg.Done()
			out[i] = fn(tg)
		}(i, tg)
	}
	wg.Wait()
	var t tally
	for _, o := range out {
		t.merge(o)
	}
	return t
}

// spinWindow is how close to a deadline sleepUntil stops sleeping and
// spins: kernel wake-ups are tens of microseconds late on a busy host.
const spinWindow = 60 * time.Microsecond

// sleepUntil blocks until t.  It sleeps in nanosleep, not time.Sleep, whose
// wake-ups round up to the runtime's millisecond poller timeout.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
		}
	}
}

// setTimerSlack lowers the calling thread's timer slack from the kernel's
// 50 µs default to 1 µs, so nanosleep wakes when asked.
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: the lag guard catches a late generator
}
