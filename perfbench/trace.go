package main

import (
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"milan/internal/core"
	"milan/internal/durable"
	"milan/internal/durable/vfs"
	"milan/internal/obs"
	"milan/internal/qos"
)

// recorder collects the spans and counts of a traced server from the seams
// the plane exposes: the arbitrator the qosnet server calls, the Observer
// decision callback, the vfs.FS, the fed tracer and the listener.  Spans
// are kept only while on (between the client's mark and stop).
type recorder struct {
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	decideAt map[int64]int64 // job -> when its decision fired
	owner    int64           // the job whose decision holds the plane lock, or -1
	snap     struct {
		open    bool
		segSeen bool
		owner   int64
		start   int64
	}
	writeBytes int64
	ops        int64 // arbitrator calls: negotiations, observes and reads
	probes     int64
	races      int64
	nonBest    int64

	wireBytes atomic.Int64 // server-connection bytes, both directions
}

// maxServerSpans bounds the spans a traced server keeps in memory.
const maxServerSpans = 1_500_000

func newRecorder() *recorder {
	return &recorder{decideAt: make(map[int64]int64), owner: -1}
}

func nowNs() int64 { return time.Now().UnixNano() }

func (r *recorder) add(s span) {
	if len(r.spans) < maxServerSpans {
		r.spans = append(r.spans, s)
	}
}

// decided is the durable.Config.Observer callback.  It runs under the
// plane lock, so every journal write until the next decision belongs to
// this job.
func (r *recorder) decided(d qos.Decision) {
	t := nowNs()
	r.mu.Lock()
	r.owner = int64(d.Job.ID)
	if r.on.Load() {
		r.decideAt[int64(d.Job.ID)] = t
	}
	r.mu.Unlock()
}

func (r *recorder) fsOp(kind uint8, start, end int64, n int) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.add(span{Req: r.owner, Kind: kind, Start: start, End: end})
	r.writeBytes += int64(n)
	r.mu.Unlock()
}

// fedSpan counts the fed router's spans: the root is one fed.call, and
// probe and commit spans give the probe and commit-race counts.
func (r *recorder) fedSpan(s obs.SpanRec) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch s.Name {
	case "fed.negotiate":
		r.add(span{Req: int64(s.Job), Kind: spFed, Start: fromTracerClock(s.Start), End: fromTracerClock(s.End)})
	case "fed.probe":
		r.probes++
	case "fed.commit":
		if s.Attrs["raced"] == 1 {
			r.races++
		}
		if s.Err == "" && s.Attrs["rank"] > 0 {
			r.nonBest++
		}
	}
}

// The fed tracer's clock reads seconds since tracerEpoch, so its span
// times convert back to Unix nanoseconds.
var tracerEpoch = time.Now()

func tracerClock() float64 { return time.Since(tracerEpoch).Seconds() }

func fromTracerClock(s float64) int64 {
	return tracerEpoch.UnixNano() + int64(s*1e9)
}

// tracedPlane wraps the durable plane as the qosnet server's arbitrator,
// timing each negotiation (durable.call) and the part of it up to the
// Observer callback (durable.decide).
type tracedPlane struct {
	p   *durable.Plane
	rec *recorder
}

func (t tracedPlane) Negotiate(job core.Job) (*qos.Grant, error) {
	start := nowNs()
	g, err := t.p.Negotiate(job)
	end := nowNs()
	r := t.rec
	id := int64(job.ID)
	r.mu.Lock()
	if r.owner == id {
		r.owner = -1
	}
	if at, ok := r.decideAt[id]; ok {
		delete(r.decideAt, id)
		r.add(span{Req: id, Kind: spDecide, Start: start, End: at})
	}
	if r.on.Load() {
		r.ops++
		r.add(span{Req: id, Kind: spCall, Start: start, End: end})
	}
	r.mu.Unlock()
	return g, err
}

func (t tracedPlane) NegotiateDAG(job core.DAGJob) (*qos.Grant, error) {
	return t.p.NegotiateDAG(job)
}

func (t tracedPlane) Observe(now float64) {
	t.count()
	t.p.Observe(now)
}

func (t tracedPlane) Stats() core.Stats {
	t.count()
	return t.p.Stats()
}

func (t tracedPlane) Utilization(origin, horizon float64) float64 {
	t.count()
	return t.p.Utilization(origin, horizon)
}

func (t tracedPlane) count() {
	if t.rec.on.Load() {
		t.rec.mu.Lock()
		t.rec.ops++
		t.rec.mu.Unlock()
	}
}

// timedFS times every File.Write and File.Sync, and each snapshot from
// the Create of its temporary file to the SyncDir that publishes the
// fresh log segment after it.
type timedFS struct {
	vfs.FS
	rec *recorder
}

func (f timedFS) Create(name string) (vfs.File, error) {
	base := filepath.Base(name)
	r := f.rec
	r.mu.Lock()
	switch {
	case strings.HasPrefix(base, "snap-") && strings.HasSuffix(base, ".tmp"):
		r.snap.open, r.snap.segSeen, r.snap.owner, r.snap.start = true, false, r.owner, nowNs()
	case strings.HasPrefix(base, "wal-") && r.snap.open:
		r.snap.segSeen = true
	}
	r.mu.Unlock()
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, r}, nil
}

func (f timedFS) OpenAppend(name string) (vfs.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.rec}, nil
}

func (f timedFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	end := nowNs()
	r := f.rec
	r.mu.Lock()
	if r.snap.open && r.snap.segSeen {
		r.snap.open = false
		if r.on.Load() {
			r.add(span{Req: r.snap.owner, Kind: spSnapshot, Start: r.snap.start, End: end})
		}
	}
	r.mu.Unlock()
	return err
}

type timedFile struct {
	vfs.File
	rec *recorder
}

func (f timedFile) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := f.File.Write(p)
	f.rec.fsOp(spWrite, start, nowNs(), n)
	return n, err
}

func (f timedFile) Sync() error {
	start := nowNs()
	err := f.File.Sync()
	f.rec.fsOp(spSync, start, nowNs(), 0)
	return err
}

// countingListener counts the bytes of every accepted connection.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
