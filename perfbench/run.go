package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/fed"
	"milan/internal/obs"
	"milan/internal/qos"
	"milan/internal/qos/qosnet"
)

// conns is the load generator's concurrency: one connection (or, in
// process, one goroutine) per processor of the 2-vCPU reference host.
const conns = 2

// lagBound is the generator lateness (median, over requests it sent on
// time) beyond which a run is invalid: the load it offered was not the
// load it claims.  The tail is reported, not guarded: a worker woken while
// both processors are busy waits out a scheduler slice now and then.
const lagBound = time.Millisecond

// servedLeg is one server process and the generator's connections to it.
type servedLeg struct {
	sp      spec
	cmd     *exec.Cmd
	in      io.WriteCloser
	dec     *json.Decoder
	ready   ready
	clients []*qosnet.Client
	g       *gen
	total   counts // every decision, warm-up included
	done    bool
}

func startServed(sp spec, seed int64, dir string, traced bool) (*servedLeg, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "serve", "-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
		"-dir", dir, "-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	l := &servedLeg{sp: sp, cmd: cmd, in: in, dec: json.NewDecoder(out)}
	if err := l.dec.Decode(&l.ready); err != nil {
		l.close()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	targets := make([]target, conns)
	for i := range targets {
		c, err := qosnet.Dial(l.ready.Addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.clients = append(l.clients, c)
		targets[i] = c
	}
	l.g = newGen(sp, seed, targets)
	l.g.trace = traced
	return l, nil
}

// warmAndMark warms the connections and the plane up, then tells the
// server that timing starts.
func (l *servedLeg) warmAndMark(o *outcome) error {
	l.add(o, l.g.warm(l.sp.warmJobs))
	if _, err := io.WriteString(l.in, "mark\n"); err != nil {
		return fmt.Errorf("mark: %w", err)
	}
	var m marked
	if err := l.dec.Decode(&m); err != nil {
		return fmt.Errorf("mark: %w", err)
	}
	o.guard(m.SnapshotCycled, "%s: timing would start before warm-up completed a snapshot cycle", l.sp.name)
	return nil
}

func (l *servedLeg) add(o *outcome, t tally) {
	o.count(t)
	l.total.add(t)
}

// stop ends timing, sends the fixed tail of decisions recovery will
// replay, closes the connections and collects the server's report, then
// checks the run's outputs against it.
func (l *servedLeg) stop(o *outcome) (report, error) {
	var rep report
	if _, err := io.WriteString(l.in, "compact\n"); err != nil {
		return rep, fmt.Errorf("compact: %w", err)
	}
	var ack struct{}
	if err := l.dec.Decode(&ack); err != nil {
		return rep, fmt.Errorf("compact: %w", err)
	}
	l.add(o, l.g.tail(tailJobs))
	for _, c := range l.clients {
		c.Close()
	}
	if _, err := io.WriteString(l.in, "stop\n"); err != nil {
		return rep, fmt.Errorf("stop: %w", err)
	}
	if err := l.dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("server report: %w", err)
	}
	l.in.Close()
	l.done = true
	if err := l.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("server: %w", err)
	}
	checkCounts(o, l.total, l.ready.Base, rep.Stats)
	o.check(rep.Invariants == "", "plane invariants after the run: %s", rep.Invariants)
	o.check(rep.Diff == "", "reopened plane differs from the live plane it was closed as: %s", rep.Diff)
	checkWidth(o, l.sp, l.ready.ShardProcs)
	return rep, nil
}

// close kills the server if it is still running and waits for it.
func (l *servedLeg) close() {
	if l.done {
		return
	}
	l.done = true
	for _, c := range l.clients {
		c.Close()
	}
	l.in.Close()
	l.cmd.Process.Kill()
	l.cmd.Wait()
}

// counts are the decisions the client saw.
type counts struct{ admitted, rejected, negotiations int }

func (c *counts) add(t tally) {
	c.admitted += t.admitted
	c.rejected += t.rejected
	c.negotiations += len(t.neg)
}

// checkCounts checks that the grants and rejections the client counted
// are exactly the plane's, from its starting state to its end.
func checkCounts(o *outcome, c counts, base, end core.Stats) {
	o.check(c.admitted == end.Admitted-base.Admitted, "client counted %d grants, plane admitted %d", c.admitted, end.Admitted-base.Admitted)
	o.check(c.rejected == end.Rejected-base.Rejected, "client counted %d rejections, plane rejected %d", c.rejected, end.Rejected-base.Rejected)
}

func checkWidth(o *outcome, sp spec, shardProcs []int) {
	for i, p := range shardProcs {
		o.guard(p >= sp.widest, "shard %d has %d processors, narrower than the widest task (%d)", i, p, sp.widest)
	}
}

// ladder runs the workload's offered-rate ladder in d, each rung for an
// equal share of it.
func ladder(g *gen, o *outcome, d time.Duration, seed int64, total *counts) []rung {
	sp := g.sp
	rungs := make([]rung, len(sp.ladder))
	for i, rate := range sp.ladder {
		rungs[i] = g.open(rate, d/time.Duration(len(sp.ladder)), rungRand(seed, i))
		o.count(rungs[i].t)
		total.add(rungs[i].t)
		r := rungs[i]
		verdict := "meets"
		if r.p99 > sp.limit || r.growing {
			verdict = "misses"
		}
		fmt.Printf("rung %6.0f/s: offered %8.1f/s  sent %6d  p50 %9.1f us  p99 %11.1f us  unsent %6d  %s the %v limit\n",
			rate, r.stat().Offered, r.t.sent, us(r.p50), us(r.p99), r.unsent, verdict, sp.limit)
		// The rung's figures are taken; its samples would only inflate the
		// peak memory of the process (in process, the plane's) being measured.
		rungs[i].t.neg, rungs[i].t.reads = nil, nil
	}
	return rungs
}

func rungRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
}

// Throughput is the median over short windows, and tail latency the
// median over a few long ones, so stalls of the host (its other tenants)
// move some windows, not the figure.
const (
	rateWindow = 100 * time.Millisecond
	windows    = 5 // for tail latency
)

// timed runs an untraced run's timed phases on g: closed loop for d/2,
// then the offered-rate ladder for d/2.  It sets every end-to-end metric
// those phases give and adds their decisions to total.
func timed(o *outcome, g *gen, d time.Duration, seed int64, total *counts) {
	from := time.Since(g.epoch)
	closed, elapsed := g.closed(d / 2)
	o.count(closed)
	var all counts
	rungs := ladder(g, o, d/2, seed, &all)
	all.add(closed)
	total.admitted += all.admitted
	total.rejected += all.rejected
	total.negotiations += all.negotiations

	w := elapsed / windows
	_, p99s := windowed(closed.neg, from, w, windows, 0.99)
	_, readP99s := windowed(closed.reads, from, w, windows, 0.99)
	counts, _ := windowed(closed.neg, from, rateWindow, int(elapsed/rateWindow), 0.5)
	fmt.Printf("closed loop, %d workers: %d negotiations, %d reads, in %d windows of %v\n",
		len(g.targets), len(closed.neg), len(closed.reads), windows, w.Round(time.Millisecond))
	o.set("admit_p50_us", "us", us(quantile(latencies(closed.neg), 0.50)))
	o.set("admit_p99_us", "us", median(p99s)/1e3)
	o.set("read_p99_us", "us", median(readP99s)/1e3)
	o.set("decisions_per_s", "1/s", median(counts)/rateWindow.Seconds())

	stats := make([]rungStat, len(rungs))
	var lag []time.Duration
	backlog := 0
	for i, r := range rungs {
		stats[i] = r.stat()
		lag = append(lag, r.t.lag...)
		backlog = max(backlog, r.t.backlog)
	}
	o.set("sustained_rate_per_s", "1/s", sustainedRate(stats, g.sp.limit))
	sortDurations(lag)
	o.guard(quantile(lag, 0.5) <= lagBound, "generator lag p50 %v exceeds %v", quantile(lag, 0.5), lagBound)
	o.set("loadgen.lag_p99_us", "us", us(quantile(lag, 0.99)))
	o.set("loadgen.backlog_max", "count", float64(backlog))

	ratio := 0.0
	if all.negotiations > 0 {
		ratio = float64(all.admitted) / float64(all.negotiations)
	}
	o.set("admit_ratio", "ratio", ratio)
	o.guard(ratio > 0, "no negotiation was admitted")
}

// servedRun measures a served workload's end-to-end metrics.
func servedRun(sp spec, seed int64, d time.Duration, dir string) (*outcome, error) {
	o := newOutcome()
	l, err := startServed(sp, seed, filepath.Join(dir, "server"), false)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if err := l.warmAndMark(o); err != nil {
		return nil, err
	}
	timed(o, l.g, d, seed, &l.total)
	util, err := l.clients[0].Utilization(0, l.g.jobs.LastRelease())
	if err != nil {
		return nil, fmt.Errorf("utilization: %w", err)
	}
	rep, err := l.stop(o)
	if err != nil {
		return nil, err
	}
	o.set("utilization", "ratio", util)
	o.set("setup_s", "s", median(l.ready.SetupS))
	o.set("recover_s", "s", median(rep.RecoverS))
	o.set("rss_peak_mb", "MB", rep.RSSPeakMB)
	return o, nil
}

// servedTraced runs closed loop twice, d/2 each: once against the plane
// as junctiond wires it, once with the timing wrappers installed.
func servedTraced(sp spec, seed int64, d time.Duration, dir string) (*outcome, error) {
	o := newOutcome()
	var legs [2]tracedLeg
	for i, traced := range []bool{false, true} {
		l, err := startServed(sp, seed, filepath.Join(dir, fmt.Sprintf("server-%d", i)), traced)
		if err != nil {
			return nil, err
		}
		defer l.close()
		if err := l.warmAndMark(o); err != nil {
			return nil, err
		}
		t, _ := l.g.closed(d / 2)
		l.add(o, t)
		rep, err := l.stop(o)
		if err != nil {
			return nil, err
		}
		legs[i] = tracedLeg{t: t, win: rep.Window}
		if traced {
			server, err := readSpans(rep.SpanFile)
			if err != nil {
				return nil, err
			}
			legs[i].spans = append(t.spans, server...)
		}
	}
	layerMetrics(o, legs[0], legs[1])
	return o, nil
}

// fedTarget is the in-process plane as a load-generator target.
type fedTarget struct{ a *fed.Arbitrator }

func (f fedTarget) Negotiate(job core.Job) (*qos.Grant, error) { return f.a.Negotiate(job) }
func (f fedTarget) Observe(now float64) error                  { f.a.Observe(now); return nil }
func (f fedTarget) Stats() (core.Stats, error)                 { return f.a.Stats(), nil }
func (f fedTarget) Utilization(origin, horizon float64) (float64, error) {
	return f.a.Utilization(origin, horizon), nil
}

// tracedFed times each negotiation as a fed.call span.
type tracedFed struct {
	fedTarget
	spans *[]span
}

func (f tracedFed) Negotiate(job core.Job) (*qos.Grant, error) {
	start := nowNs()
	g, err := f.a.Negotiate(job)
	if len(*f.spans) < maxSpans/conns {
		*f.spans = append(*f.spans, span{Req: int64(job.ID), Kind: spFed, Start: start, End: nowNs()})
	}
	return g, err
}

func deepConfig(sp spec, met *fed.Metrics) fed.Config {
	return fed.Config{Procs: sp.procs, Shards: sp.shards, ProbeK: sp.probeK, Metrics: met}
}

// deepStart decides the first startJobs jobs of the stream: the starting
// state every set-up restores.
func deepStart(sp spec, seed int64) (fed.PlaneState, error) {
	a, err := fed.New(deepConfig(sp, nil))
	if err != nil {
		return fed.PlaneState{}, err
	}
	jobs := newStream(sp, seed)
	for i := 0; i < sp.startJobs; i++ {
		job, observe := jobs.Next()
		a.Negotiate(job) // a rejection is a decision too
		if observe > 0 {
			a.Observe(observe)
		}
	}
	return a.ExportState(), nil
}

// restore builds a plane from st and answers a first read: the in-process
// plane's set-up (and, from the run's final state, its recovery).
func restore(sp spec, st fed.PlaneState, met *fed.Metrics) (*fed.Arbitrator, time.Duration, error) {
	start := time.Now()
	a, err := fed.New(deepConfig(sp, met))
	if err != nil {
		return nil, 0, err
	}
	if err := a.RestoreState(st); err != nil {
		return nil, 0, err
	}
	a.Stats()
	return a, time.Since(start), nil
}

// deepRun measures plan-deep's end-to-end metrics.
func deepRun(sp spec, seed int64, d time.Duration) (*outcome, error) {
	o := newOutcome()
	st, err := deepStart(sp, seed)
	if err != nil {
		return nil, err
	}
	var a *fed.Arbitrator
	var setup []float64
	for i := 0; i < setupReps; i++ {
		var took time.Duration
		if a, took, err = restore(sp, st, nil); err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	base := a.Stats()
	g := newGen(sp, seed, []target{fedTarget{a}, fedTarget{a}})
	warm := g.warm(sp.warmJobs)
	o.count(warm)
	var total counts
	total.add(warm)
	timed(o, g, d, seed, &total)
	o.set("utilization", "ratio", a.Utilization(0, g.jobs.LastRelease()))
	o.set("setup_s", "s", median(setup))

	checkCounts(o, total, base, a.Stats())
	err = a.CheckInvariants()
	o.check(err == nil, "plane invariants after the run: %v", err)
	checkWidth(o, sp, a.ShardProcs())
	live := a.ExportState()
	var recov []float64
	for i := 0; i < setupReps; i++ {
		b, took, err := restore(sp, live, nil)
		if err != nil {
			return nil, err
		}
		recov = append(recov, took.Seconds())
		got, want := durable.State{Now: b.Now(), Shards: b.ExportState().Shards}, durable.State{Now: live.Now, Shards: live.Shards}
		err = durable.DiffStates(&got, &want)
		o.check(err == nil, "restored plane differs from the live plane it was exported from: %v", err)
	}
	o.set("recover_s", "s", median(recov))
	o.set("rss_peak_mb", "MB", rssPeakMB())
	return o, nil
}

// deepTraced runs plan-deep closed loop twice, d/2 each: once on the bare
// plane, once with fed.Metrics and fed.call timing.
func deepTraced(sp spec, seed int64, d time.Duration) (*outcome, error) {
	o := newOutcome()
	st, err := deepStart(sp, seed)
	if err != nil {
		return nil, err
	}
	var legs [2]tracedLeg
	for i := range legs {
		var met *fed.Metrics
		if i == 1 {
			met = fed.NewMetrics(obs.NewRegistry())
		}
		a, _, err := restore(sp, st, met)
		if err != nil {
			return nil, err
		}
		base := a.Stats()
		spans := make([][]span, conns)
		targets := make([]target, conns)
		for j := range targets {
			targets[j] = fedTarget{a}
			if met != nil {
				targets[j] = tracedFed{fedTarget{a}, &spans[j]}
			}
		}
		g := newGen(sp, seed, targets)
		g.trace = met != nil
		var total counts
		warm := g.warm(sp.warmJobs)
		o.count(warm)
		total.add(warm)
		from := readCounters(a.Stats(), a.IndexStats())
		var probes, races, nonBest int64
		if met != nil {
			probes, races, nonBest = met.Probes.Value(), met.CommitRaces.Value(), met.NonBestCommits.Value()
			for j := range spans {
				spans[j] = spans[j][:0]
			}
		}
		t, _ := g.closed(d / 2)
		o.count(t)
		total.add(t)
		legs[i] = tracedLeg{t: t, win: delta(from, readCounters(a.Stats(), a.IndexStats()))}
		if met != nil {
			w := &legs[i].win
			w.Probes, w.Races, w.NonBest = met.Probes.Value()-probes, met.CommitRaces.Value()-races, met.NonBestCommits.Value()-nonBest
			legs[i].spans = t.spans
			for _, s := range spans {
				legs[i].spans = append(legs[i].spans, s...)
			}
		}
		checkCounts(o, total, base, a.Stats())
		err = a.CheckInvariants()
		o.check(err == nil, "plane invariants after the run: %v", err)
		checkWidth(o, sp, a.ShardProcs())
	}
	layerMetrics(o, legs[0], legs[1])
	return o, nil
}
