package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/qos/qosnet"
)

// setupReps is how many times a run sets up (and, at the end, recovers)
// the plane; it reports the median.
const setupReps = 15

// ready is the server's first message: where it listens and what the
// starting state holds.
type ready struct {
	Addr       string    `json:"addr"`
	SetupS     []float64 `json:"setup_s"`
	Base       core.Stats
	ShardProcs []int `json:"shard_procs"`
}

// marked answers the client's mark: whether a snapshot cycle completed
// during warm-up.
type marked struct {
	SnapshotCycled bool `json:"snapshot_cycled"`
}

// report is the server's last message, after the client's stop.
type report struct {
	Stats      core.Stats
	Invariants string    `json:"invariants,omitempty"` // CheckInvariants failure
	Diff       string    `json:"diff,omitempty"`       // DiffStates failure after reopen
	RecoverS   []float64 `json:"recover_s"`
	RSSPeakMB  float64   `json:"rss_peak_mb"`
	Window     counters  `json:"window"` // deltas between mark and stop
	SpanFile   string    `json:"span_file,omitempty"`
}

// counters are a server's per-layer counts over the measured window.
type counters struct {
	Decisions   int64   `json:"decisions"`
	ChainsTried int64   `json:"chains_tried"`
	HolesProbed int64   `json:"holes_probed"`
	PlanFails   int64   `json:"plan_failures"`
	Rebuilds    int64   `json:"index_rebuilds"`
	LeafUpdates int64   `json:"index_leaf_updates"`
	Descents    int64   `json:"descents"`
	DescentStep int64   `json:"descent_steps"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCPauseMs   float64 `json:"gc_pause_ms"`
	// Traced servers only.
	Fsyncs     int64 `json:"fsyncs"`
	Snapshots  int64 `json:"snapshots"`
	WriteBytes int64 `json:"write_bytes"`
	WireBytes  int64 `json:"wire_bytes"`
	Ops        int64 `json:"ops"`
	Probes     int64 `json:"probes"`
	Races      int64 `json:"races"`
	NonBest    int64 `json:"nonbest"`
}

// planeCounters are the counts every plane exposes, plus the Go heap.
type planeCounters struct {
	stats core.Stats
	index core.IndexStats
	mem   runtime.MemStats
}

func readCounters(stats core.Stats, index core.IndexStats) planeCounters {
	c := planeCounters{stats: stats, index: index}
	runtime.ReadMemStats(&c.mem)
	return c
}

// delta returns the window counts between a and b.
func delta(a, b planeCounters) counters {
	return counters{
		Decisions:   int64(b.stats.Admitted + b.stats.Rejected - a.stats.Admitted - a.stats.Rejected),
		ChainsTried: int64(b.stats.ChainsTried - a.stats.ChainsTried),
		HolesProbed: int64(b.stats.HolesProbed - a.stats.HolesProbed),
		PlanFails:   int64(b.stats.PlanFailures - a.stats.PlanFailures),
		Rebuilds:    b.index.Rebuilds - a.index.Rebuilds,
		LeafUpdates: b.index.LeafUpdates - a.index.LeafUpdates,
		Descents:    b.index.Descents - a.index.Descents,
		DescentStep: b.index.DescentSteps - a.index.DescentSteps,
		AllocBytes:  b.mem.TotalAlloc - a.mem.TotalAlloc,
		GCPauseMs:   float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
	}
}

// planeConfig is the durable plane as junctiond's serveAdmission wires it.
func planeConfig(sp spec, dir string, fs vfs.FS, sync durable.SyncPolicy) durable.Config {
	return durable.Config{
		FS: fs, Dir: dir,
		Procs: sp.procs, Shards: sp.shards, ProbeK: sp.probeK,
		Store: durable.StoreOptions{Sync: sync, SnapshotEvery: 1024},
	}
}

// serveMain is the server process of a served workload.  It builds the
// workload's starting state, sets the plane up setupReps times from it,
// serves the last one over qosnet, and answers "mark" and "stop" lines on
// standard input with JSON lines on standard output.
func serveMain(args []string) int {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	dir := fl.String("dir", "", "scratch directory")
	traced := fl.Bool("traced", false, "install the timing wrappers")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := findSpec(*name)
	if err != nil || !sp.served || *dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench serve: bad arguments:", err)
		return 2
	}
	if err := serve(sp, *seed, *dir, *traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

func serve(sp spec, seed int64, dir string, traced bool, in io.Reader, out io.Writer) error {
	template := filepath.Join(dir, "start")
	if err := buildStart(sp, seed, template); err != nil {
		return fmt.Errorf("starting state: %w", err)
	}
	var rec *recorder
	var met *durable.Metrics
	if traced {
		rec = newRecorder()
		met = durable.NewMetrics(obs.NewRegistry())
	}
	open := func(walDir string) (*durable.Plane, error) {
		var fs vfs.FS = vfs.OS{}
		cfg := planeConfig(sp, walDir, fs, sp.sync)
		if traced {
			tr := obs.NewTracer(1024)
			tr.SetClock(tracerClock)
			tr.OnEnd(rec.fedSpan)
			cfg.FS, cfg.Observer, cfg.Tracer, cfg.Metrics = timedFS{fs, rec}, rec.decided, tr, met
		}
		p, _, err := durable.OpenPlane(cfg)
		return p, err
	}

	// Set up setupReps times, each from a fresh copy of the starting
	// state: open (recovering it), serve, and answer a first request.
	var plane *durable.Plane
	var srv *qosnet.Server
	var walDir string
	var setup []float64
	for i := 0; i < setupReps; i++ {
		walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		if err := copyDir(template, walDir); err != nil {
			return err
		}
		start := time.Now()
		p, err := open(walDir)
		if err != nil {
			return fmt.Errorf("open plane: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.Close()
			return err
		}
		var arb qosnet.Arbitrator = p
		if traced {
			ln = countingListener{ln, &rec.wireBytes}
			arb = tracedPlane{p, rec}
		}
		s := qosnet.Serve(arb, ln)
		if err := ping(s.Addr().String()); err != nil {
			s.Close()
			p.Close()
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		if i < setupReps-1 {
			s.Close()
			p.Close()
			os.RemoveAll(walDir)
			continue
		}
		plane, srv = p, s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.Close()
			plane.Close()
		}
	}()

	enc := json.NewEncoder(out)
	base := plane.Stats()
	if err := enc.Encode(ready{Addr: srv.Addr().String(), SetupS: setup, Base: base, ShardProcs: plane.Fed().ShardProcs()}); err != nil {
		return err
	}
	snapAtReady := newestSnapshot(walDir)

	var from planeCounters
	var win counters
	var fromFsyncs, fromSnaps int64
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		switch lines.Text() {
		case "mark":
			from = readCounters(plane.Stats(), plane.Fed().IndexStats())
			if traced {
				fromFsyncs, fromSnaps = met.Fsyncs.Value(), met.Snapshots.Value()
				rec.wireBytes.Store(0)
				rec.mu.Lock()
				rec.ops = 0
				rec.mu.Unlock()
				rec.on.Store(true)
			}
			if err := enc.Encode(marked{SnapshotCycled: newestSnapshot(walDir) != snapAtReady}); err != nil {
				return err
			}
		case "compact":
			// Timing is over: close the window, then compact, so that the
			// fixed tail the client sends next is the log recovery replays.
			win = delta(from, readCounters(plane.Stats(), plane.Fed().IndexStats()))
			if traced {
				rec.on.Store(false)
				rec.mu.Lock()
				win.Fsyncs, win.Snapshots = met.Fsyncs.Value()-fromFsyncs, met.Snapshots.Value()-fromSnaps
				win.WriteBytes, win.WireBytes, win.Ops = rec.writeBytes, rec.wireBytes.Load(), rec.ops
				win.Probes, win.Races, win.NonBest = rec.probes, rec.races, rec.nonBest
				rec.mu.Unlock()
			}
			if err := plane.Snapshot(); err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			if err := enc.Encode(struct{}{}); err != nil {
				return err
			}
		case "stop":
			stopped = true
			return stop(sp, plane, srv, walDir, dir, win, rec, enc)
		}
	}
	return fmt.Errorf("client went away: %v", lines.Err())
}

// stop closes the server, checks the plane, and times recovery of the
// run's own log setupReps times, each from a fresh copy.
func stop(sp spec, plane *durable.Plane, srv *qosnet.Server, walDir, dir string, win counters, rec *recorder, enc *json.Encoder) error {
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close server: %w", err)
	}
	rep := report{Stats: plane.Stats(), Window: win}
	if err := plane.Fed().CheckInvariants(); err != nil {
		rep.Invariants = err.Error()
	}
	if err := plane.Err(); err != nil {
		rep.Invariants += " poisoned: " + err.Error()
	}
	live := plane.ExportState()
	if err := plane.Close(); err != nil {
		return fmt.Errorf("close plane: %w", err)
	}
	if rec != nil {
		rep.SpanFile = filepath.Join(dir, "server-spans.bin")
		if err := writeSpans(rep.SpanFile, rec.spans); err != nil {
			return err
		}
	}
	for i := 0; i < setupReps; i++ {
		again := filepath.Join(dir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(walDir, again); err != nil {
			return err
		}
		start := time.Now()
		p, _, err := durable.OpenPlane(planeConfig(sp, again, vfs.OS{}, sp.sync))
		if err != nil {
			return fmt.Errorf("reopen plane: %w", err)
		}
		rep.RecoverS = append(rep.RecoverS, time.Since(start).Seconds())
		got := p.ExportState()
		if err := durable.DiffStates(&got, &live); err != nil && rep.Diff == "" {
			rep.Diff = err.Error()
		}
		p.Close()
		os.RemoveAll(again)
	}
	rep.RSSPeakMB = rssPeakMB()
	return enc.Encode(rep)
}

// tailJobs is how many decisions a run sends after its last compaction,
// so recovery replays a log of the same length every time (under the
// plane's SnapshotEvery records).
const tailJobs = 960

// buildStart writes the workload's starting state: the first startJobs
// jobs of its stream decided by a plane of the served shape, all in one
// log with no snapshot.  Set-up replays every record of it, so set-up
// time is dominated by recovery work, not by the few fsyncs around it.
func buildStart(sp spec, seed int64, dir string) error {
	cfg := planeConfig(sp, dir, vfs.OS{}, durable.SyncNever)
	cfg.Store.SnapshotEvery = math.MaxInt32
	p, _, err := durable.OpenPlane(cfg)
	if err != nil {
		return err
	}
	jobs := newStream(sp, seed)
	for i := 0; i < sp.startJobs; i++ {
		job, observe := jobs.Next()
		p.Negotiate(job) // a rejection is a decision too
		if observe > 0 {
			p.Observe(observe)
		}
	}
	if err := p.Err(); err != nil {
		p.Close()
		return err
	}
	return p.Close()
}

func ping(addr string) error {
	c, err := qosnet.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Ping()
}

// newestSnapshot returns the name of the newest snapshot in a log
// directory ("" for none).
func newestSnapshot(dir string) string {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return filepath.Base(names[len(names)-1])
}

// copyDir copies a log directory and syncs the copy, so the fsyncs of the
// plane opened on it do not also flush the copy's pages to disk.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(to, e.Name()), b); err != nil {
			return err
		}
	}
	return vfs.OS{}.SyncDir(to)
}

func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := binary.Write(w, binary.LittleEndian, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	const size = 8*3 + 1
	spans := make([]span, len(b)/size)
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, spans); err != nil {
		return nil, err
	}
	return spans, nil
}
