package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"milan/internal/core"
	"milan/internal/durable/vfs"
)

// File format constants.  Segment files are named wal-%016x.log by their
// first LSN; snapshot files snap-%016x.snap by the last LSN they cover.
const (
	walMagic      = "MLNWAL01"
	snapMagic     = "MLNSNP01"
	formatVersion = 1
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged grant can be
	// lost by an honest disk.  The default, and the only policy under
	// which the crash-loop differential guarantees zero loss.
	SyncAlways SyncPolicy = iota
	// SyncEveryN fsyncs after every Nth append (StoreOptions.SyncEvery);
	// a crash may lose up to N-1 acknowledged records.
	SyncEveryN
	// SyncNever leaves syncing to the operating system; a crash may lose
	// any unsynced tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEveryN:
		return "every-n"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "every-n":
		return SyncEveryN, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("durable: unknown sync policy %q (want always, every-n or never)", s)
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the append count between fsyncs under SyncEveryN
	// (default 16).
	SyncEvery int
	// SnapshotEvery is the record count between snapshots suggested by
	// ShouldSnapshot; 0 (default 4096) snapshots are still only taken
	// when the caller asks.
	SnapshotEvery int
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Recovered reports what Open reconstructed.
type Recovered struct {
	// State is the fully replayed state: newest valid snapshot plus every
	// contiguous, checksum-clean log record after it.
	State State
	// SnapshotLSN is the LSN of the snapshot recovery started from
	// (0 = genesis, no usable snapshot).
	SnapshotLSN uint64
	// Records is the number of log records replayed on top of it.
	Records int
	// Torn reports whether recovery stopped at a torn or corrupt log
	// tail (everything before the tear is recovered; nothing after is).
	Torn bool
	// ReplayDuration is the wall-clock time of the whole recovery pass:
	// loading the snapshot, then reading, decoding and applying every log
	// record in one stream.  It excludes the compaction Open runs after.
	ReplayDuration time.Duration
}

// Store is the durable admission plane's log: an append-only sequence of
// checksummed records in rotated segment files, compacted by snapshots.
// A store is single-writer; the owning plane serializes appends.
//
// Append errors poison the store: once any write or sync fails, the
// in-memory state may be ahead of the durable state, so every later
// operation fails fast with the original error and the operator must
// reopen (re-running recovery) to continue.
type Store struct {
	fs   vfs.FS
	dir  string
	opts StoreOptions
	core *core.Options
	met  *Metrics

	seg              vfs.File
	segName          string
	nextLSN          uint64
	durableLSN       uint64
	appendsSinceSync int
	recordsSinceSnap int
	poisoned         error
}

// OpenConfig configures Open.
type OpenConfig struct {
	// FS is the filesystem seam (vfs.OS{} for production).
	FS vfs.FS
	// Dir is the log directory; created if absent.
	Dir string
	// Genesis is the plane's empty state, used when the directory holds
	// no usable snapshot (see Genesis).
	Genesis State
	// Options is the scheduler policy used to rebuild shards for replay.
	Options *core.Options
	// Store holds the log's own tuning.
	Store StoreOptions
	// Metrics, when non-nil, receives durability instrumentation.
	Metrics *Metrics
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }
func snapName(lsn uint64) string  { return fmt.Sprintf("snap-%016x.snap", lsn) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Open recovers the durable state from dir and returns a store positioned
// to append after it.  Recovery is idempotent: Open rewrites a fresh
// snapshot of the recovered state and truncates the log, so a crash at any
// point — including during Open itself — recovers to the same state.
func Open(cfg OpenConfig) (*Store, Recovered, error) {
	if cfg.FS == nil || cfg.Dir == "" {
		return nil, Recovered{}, fmt.Errorf("durable: open needs an FS and a directory")
	}
	if len(cfg.Genesis.Shards) == 0 {
		return nil, Recovered{}, fmt.Errorf("durable: open needs a genesis state (see Genesis)")
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: create log dir: %w", err)
	}
	s := &Store{fs: cfg.FS, dir: cfg.Dir, opts: cfg.Store.withDefaults(), core: cfg.Options, met: cfg.Metrics}

	rec, err := s.recover(cfg.Genesis)
	if err != nil {
		return nil, Recovered{}, err
	}
	if s.met != nil {
		s.met.RecoveryReplay.Observe(rec.ReplayDuration.Seconds())
		s.met.RecoveryRecords.Add(int64(rec.Records))
		if rec.Torn {
			s.met.TornTails.Inc()
		}
	}

	// Make recovery the new ground truth: snapshot the recovered state,
	// drop everything else, start a fresh segment.  Until the snapshot's
	// SyncDir lands, the old snapshot+log remain the durable prefix and a
	// crash replays to the identical state.
	st := rec.State
	s.nextLSN = st.LSN + 1
	s.durableLSN = st.LSN
	snapSt := st
	snapSt.Shards = append([]core.SchedulerState(nil), st.Shards...)
	snapSt.Grants = append([]GrantRecord(nil), st.Grants...)
	if err := s.compactTo(&snapSt); err != nil {
		return nil, Recovered{}, err
	}
	return s, rec, nil
}

// recover rebuilds the durable state in one streaming pass: the newest
// valid snapshot, then the contiguous record run after it, read through one
// reused buffered reader and applied to the replay schedulers frame by
// frame — no record outlives its own apply.  Each frame is checked before
// it is applied (length limit, CRC32C, strict decode, LSN contiguity).  A
// torn or corrupt frame, an LSN gap, a bad segment header or an unreadable
// segment ends the run: the durable prefix property says everything before
// is state, everything after is noise.  An apply error fails recovery.
func (s *Store) recover(genesis State) (Recovered, error) {
	start := time.Now()
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return Recovered{}, fmt.Errorf("durable: read log dir: %w", err)
	}
	var snaps, segs []uint64
	for _, name := range names {
		if v, ok := parseName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseName(name, "wal-", ".log"); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	var out Recovered
	base := genesis
	for _, lsn := range snaps {
		st, serr := s.readSnapshot(filepath.Join(s.dir, snapName(lsn)))
		if serr != nil || st.LSN != lsn {
			continue // corrupt or half-written snapshot: fall back to an older one
		}
		base, out.SnapshotLSN = st, lsn
		break
	}
	rp, err := newReplayer(base, s.core)
	if err != nil {
		return Recovered{}, fmt.Errorf("durable: replay: %w", err)
	}

	br := bufio.NewReaderSize(nil, 32<<10) // the largest size Go allocates as a small object
	for _, first := range segs {
		f, serr := s.fs.Open(filepath.Join(s.dir, segName(first)))
		if serr != nil {
			out.Torn = true
			break
		}
		br.Reset(f)
		clean, err := rp.replaySegment(br, first)
		f.Close()
		if err != nil {
			return Recovered{}, fmt.Errorf("durable: replay: %w", err)
		}
		if !clean {
			out.Torn = true
			break
		}
	}
	out.State = rp.state()
	out.Records = rp.applied
	out.ReplayDuration = time.Since(start)
	return out, nil
}

// replaySegment streams one segment's records into the replayer and
// reports whether the segment ended cleanly: a bad header, a segment
// starting past the expected LSN (a whole segment is missing), or a torn,
// corrupt or out-of-order frame ends it uncleanly.  The error is non-nil
// only when applying a valid record failed.
func (rp *replayer) replaySegment(r io.Reader, first uint64) (bool, error) {
	expect := rp.st.LSN + 1
	if hdrFirst, err := readSegHeader(r); err != nil || hdrFirst != first || first > expect {
		return false, nil
	}
	for {
		payload, err := readFrame(r, rp.frame)
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, nil
		}
		rp.frame = payload
		rec, err := DecodeRecord(payload)
		if err != nil || rec.LSN > expect {
			return false, nil
		}
		if rec.LSN < expect {
			continue // already covered by the snapshot or a prior segment
		}
		if err := rp.apply(&rec); err != nil {
			return false, err
		}
		expect++
	}
}

func (s *Store) readFile(path string) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

func (s *Store) readSnapshot(path string) (State, error) {
	data, err := s.readFile(path)
	if err != nil {
		return State{}, err
	}
	r := bytes.NewReader(data)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return State{}, fmt.Errorf("durable: truncated snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return State{}, fmt.Errorf("durable: bad snapshot magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		return State{}, fmt.Errorf("durable: snapshot format version %d (want %d)", v, formatVersion)
	}
	payload, err := readFrame(r, nil)
	if err != nil {
		return State{}, err
	}
	if r.Len() != 0 {
		return State{}, fmt.Errorf("durable: %d trailing bytes after snapshot frame", r.Len())
	}
	return DecodeSnapshot(payload)
}

func readSegHeader(r io.Reader) (uint64, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: truncated segment header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("durable: bad segment magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		return 0, fmt.Errorf("durable: segment format version %d (want %d)", v, formatVersion)
	}
	return binary.LittleEndian.Uint64(hdr[12:20]), nil
}

func writeSegHeader(f vfs.File, first uint64) error {
	var hdr [20]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], first)
	_, err := f.Write(hdr[:])
	return err
}

// compactTo writes st as the newest snapshot, rotates to a fresh segment
// starting at nextLSN and deletes every older file.  Crash-safe: the new
// snapshot is written to a temp name, synced, renamed into place and made
// durable by SyncDir before anything old is removed.
func (s *Store) compactTo(st *State) error {
	start := time.Now()
	st.Prune()
	payload := EncodeSnapshot(st)
	name := snapName(st.LSN)
	tmp := name + ".tmp"
	f, err := s.fs.Create(filepath.Join(s.dir, tmp))
	if err != nil {
		return s.poison(fmt.Errorf("durable: create snapshot: %w", err))
	}
	var hdr [12]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: write snapshot: %w", err))
	}
	n, err := writeFrame(f, payload)
	if err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return s.poison(fmt.Errorf("durable: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return s.poison(fmt.Errorf("durable: close snapshot: %w", err))
	}
	if err := s.fs.Rename(filepath.Join(s.dir, tmp), filepath.Join(s.dir, name)); err != nil {
		return s.poison(fmt.Errorf("durable: publish snapshot: %w", err))
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.poison(fmt.Errorf("durable: sync log dir: %w", err))
	}

	// The snapshot is durable; everything older is now garbage.
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return s.poison(fmt.Errorf("durable: read log dir: %w", err))
	}
	for _, old := range names {
		if old == name {
			continue
		}
		if _, ok := parseName(old, "snap-", ".snap"); ok {
			s.fs.Remove(filepath.Join(s.dir, old))
			continue
		}
		if _, ok := parseName(old, "wal-", ".log"); ok {
			s.fs.Remove(filepath.Join(s.dir, old))
			continue
		}
		if filepath.Ext(old) == ".tmp" {
			s.fs.Remove(filepath.Join(s.dir, old))
		}
	}

	// Fresh segment for the records after the snapshot.
	s.segName = filepath.Join(s.dir, segName(s.nextLSN))
	seg, err := s.fs.Create(s.segName)
	if err != nil {
		return s.poison(fmt.Errorf("durable: create segment: %w", err))
	}
	if err := writeSegHeader(seg, s.nextLSN); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: write segment header: %w", err))
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: sync segment: %w", err))
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		seg.Close()
		return s.poison(fmt.Errorf("durable: sync log dir: %w", err))
	}
	s.seg = seg
	s.appendsSinceSync = 0
	s.recordsSinceSnap = 0
	if s.met != nil {
		s.met.SnapshotBytes.Set(float64(12 + n))
		s.met.SnapshotDuration.Observe(time.Since(start).Seconds())
		s.met.Snapshots.Inc()
	}
	return nil
}

func (s *Store) poison(err error) error {
	if s.poisoned == nil {
		s.poisoned = err
		if s.met != nil {
			s.met.Poisoned.Set(1)
		}
	}
	return err
}

// Poisoned returns the first append/snapshot error, or nil.  A poisoned
// store refuses all further writes; reopen to recover.
func (s *Store) Poisoned() error { return s.poisoned }

// Append assigns the record the next LSN, writes it and syncs per the
// configured policy.  On success the record is the durability point for
// its event: the caller may acknowledge.  On failure the store is
// poisoned and the caller must not acknowledge.
func (s *Store) Append(r *Record) (uint64, error) {
	if s.poisoned != nil {
		return 0, fmt.Errorf("durable: store poisoned by earlier error: %w", s.poisoned)
	}
	start := time.Now()
	r.LSN = s.nextLSN
	payload := EncodeRecord(r)
	if _, err := writeFrame(s.seg, payload); err != nil {
		return 0, s.poison(fmt.Errorf("durable: append %s record: %w", r.Kind, err))
	}
	s.nextLSN++
	s.recordsSinceSnap++
	s.appendsSinceSync++
	sync := false
	switch s.opts.Sync {
	case SyncAlways:
		sync = true
	case SyncEveryN:
		sync = s.appendsSinceSync >= s.opts.SyncEvery
	}
	if sync {
		if err := s.seg.Sync(); err != nil {
			return 0, s.poison(fmt.Errorf("durable: sync %s record: %w", r.Kind, err))
		}
		s.durableLSN = r.LSN
		s.appendsSinceSync = 0
		if s.met != nil {
			s.met.Fsyncs.Inc()
		}
	}
	if s.met != nil {
		s.met.Appends.Inc()
		s.met.AppendLatency.Observe(time.Since(start).Seconds())
	}
	return r.LSN, nil
}

// WriteSnapshot compacts the log to st, which must cover every appended
// record (st.LSN == last assigned LSN) — the plane guarantees this by
// snapshotting under its own write lock.
func (s *Store) WriteSnapshot(st *State) error {
	if s.poisoned != nil {
		return fmt.Errorf("durable: store poisoned by earlier error: %w", s.poisoned)
	}
	if st.LSN != s.nextLSN-1 {
		return fmt.Errorf("durable: snapshot at LSN %d does not cover the log head %d", st.LSN, s.nextLSN-1)
	}
	if err := s.compactTo(st); err != nil {
		return err
	}
	s.durableLSN = st.LSN
	return nil
}

// ShouldSnapshot reports whether enough records accumulated since the last
// snapshot to warrant another (per StoreOptions.SnapshotEvery).
func (s *Store) ShouldSnapshot() bool { return s.recordsSinceSnap >= s.opts.SnapshotEvery }

// NextLSN returns the LSN the next append will receive.
func (s *Store) NextLSN() uint64 { return s.nextLSN }

// DurableLSN returns the highest LSN known synced to stable storage.
func (s *Store) DurableLSN() uint64 { return s.durableLSN }

// Close closes the open segment.  It does not sync: the sync policy
// already decided what is durable.
func (s *Store) Close() error {
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// replayer applies committed records, in log order, to schedulers rebuilt
// from a base state.  It is recovery's one applier: Open streams records
// into it as they are read, and BenchmarkReplay feeds it directly.  Replay
// applies committed decisions verbatim — it never re-plans — so the result
// is bit-exact.
type replayer struct {
	st      State
	scheds  []*core.Scheduler
	applied int
	frame   []byte // frame buffer reused across every segment's reads
}

func newReplayer(base State, opts *core.Options) (*replayer, error) {
	// Replay schedulers are exported and discarded, never probed, so they
	// carry no segment-tree index: with one, every ReplayCommit would pay a
	// full index rebuild.  The linear path answers bit-identically.
	var o core.Options
	if opts != nil {
		o = *opts
	}
	o.ProfileIndex = core.ProfileIndexOff
	scheds := make([]*core.Scheduler, len(base.Shards))
	for i, sh := range base.Shards {
		sc := core.NewScheduler(max(sh.Profile.Capacity, 1), 0, &o)
		if err := sc.RestoreState(sh); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		scheds[i] = sc
	}
	return &replayer{
		st: State{
			LSN:    base.LSN,
			Now:    base.Now,
			Grants: append([]GrantRecord(nil), base.Grants...),
		},
		scheds: scheds,
	}, nil
}

// state exports the replayed state, grants sorted by job ID.
func (rp *replayer) state() State {
	st := rp.st
	st.Shards = make([]core.SchedulerState, len(rp.scheds))
	for i, sc := range rp.scheds {
		st.Shards[i] = sc.ExportState()
	}
	st.Prune()
	return st
}

// apply applies one record.  The grant an admit or renegotiation creates
// takes the record's Tasks slice, which must not be modified afterwards.
func (rp *replayer) apply(r *Record) error {
	if err := rp.applyKind(r); err != nil {
		return fmt.Errorf("record lsn=%d kind=%s: %w", r.LSN, r.Kind, err)
	}
	rp.st.LSN = r.LSN
	rp.applied++
	return nil
}

func (rp *replayer) applyKind(r *Record) error {
	st, scheds := &rp.st, rp.scheds
	shardOK := func() error {
		if r.Shard < 0 || r.Shard >= len(scheds) {
			return fmt.Errorf("shard %d out of range (%d shards)", r.Shard, len(scheds))
		}
		return nil
	}
	switch r.Kind {
	case KindObserve:
		if r.Now > st.Now {
			for _, sc := range scheds {
				sc.Observe(r.Now)
			}
			st.Now = r.Now
			// Drop elapsed grants as the live plane's Observe does, so the
			// set stays bounded by concurrency, not by the log's length.
			st.dropElapsed()
		}
	case KindCapacity:
		if err := shardOK(); err != nil {
			return err
		}
		if err := scheds[r.Shard].SetCapacity(r.Procs); err != nil {
			return err
		}
	case KindAdmit, KindRenegotiate:
		if err := shardOK(); err != nil {
			return err
		}
		// The live plane admits only jobs with at most core.MaxChains
		// paths, so a larger index can only come from a corrupt record; it
		// would size the per-chain counters.
		if r.Chain < 0 || r.Chain >= core.MaxChains {
			return fmt.Errorf("chain %d out of range", r.Chain)
		}
		pl := &core.Placement{JobID: r.JobID, Chain: r.Chain, Tasks: r.Tasks}
		if err := scheds[r.Shard].ReplayCommit(pl, r.Quality, r.Tunable); err != nil {
			return err
		}
		g := GrantRecord{
			JobID: r.JobID, Shard: r.Shard, Chain: r.Chain,
			Quality: r.Quality, Tunable: r.Tunable,
			Tenant: r.Tenant, Class: r.Class,
			Tasks: r.Tasks,
		}
		if r.Kind == KindRenegotiate {
			for i := range st.Grants {
				if st.Grants[i].JobID == r.JobID {
					st.Grants[i] = g
					return nil
				}
			}
		}
		st.Grants = append(st.Grants, g)
	case KindReject:
		if err := shardOK(); err != nil {
			return err
		}
		scheds[r.Shard].ReplayRejected()
	case KindShed:
		// Shed jobs never touched a scheduler; the record exists so
		// recovery can prove they did not reappear as grants.
	case KindComplete:
		for i := range st.Grants {
			if st.Grants[i].JobID == r.JobID {
				st.Grants = append(st.Grants[:i], st.Grants[i+1:]...)
				break
			}
		}
	default:
		return fmt.Errorf("unknown kind %d", uint8(r.Kind))
	}
	return nil
}
