package durable

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
	"milan/internal/workload"
)

// benchLog builds a committed event log of n records (alternating observe
// and admit, the recovery-dominant mix) plus the genesis state it applies
// to.  The log is deterministic so ns/op and allocs/op are comparable
// across runs.
func benchLog(n int) (State, []Record) {
	gen, err := Genesis(16, 2, 0)
	if err != nil {
		panic(err)
	}
	recs := make([]Record, 0, n)
	now := 0.0
	lsn := uint64(0)
	for i := 0; len(recs) < n; i++ {
		now += 0.25
		lsn++
		recs = append(recs, Record{Kind: KindObserve, LSN: lsn, Now: now})
		if len(recs) == n {
			break
		}
		lsn++
		start := now
		recs = append(recs, Record{
			Kind: KindAdmit, LSN: lsn, Shard: i % 2, JobID: i + 1,
			Chain: i % 3, Quality: 0.5 + float64(i%4)*0.125,
			Tunable: i%2 == 0, Tenant: "bench", Class: i % 3,
			// Each shard sees one admit per 1.0 time units and each job
			// spans 0.8, so the synthetic log never over-reserves.
			Tasks: []core.TaskPlacement{
				{Task: 0, Procs: 1 + i%2, Start: start, Finish: start + 0.4},
				{Task: 1, Procs: 1, Start: start + 0.4, Finish: start + 0.8},
			},
		})
	}
	return gen, recs
}

// replay applies recs to base through recovery's applier.
func replay(base State, recs []Record) (State, error) {
	rp, err := newReplayer(base, nil)
	if err != nil {
		return State{}, err
	}
	for i := range recs {
		if err := rp.apply(&recs[i]); err != nil {
			return State{}, err
		}
	}
	return rp.state(), nil
}

// BenchmarkReplay measures the applier — the recovery hot path without
// the reads — at 1k, 10k and 100k committed records.  Replay cost bounds
// restart downtime, so this is the number the snapshot cadence trades
// against.
func BenchmarkReplay(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			gen, recs := benchLog(n)
			// One untimed warmup so lazy one-time allocations don't smear
			// a +-1 jitter into allocs/op at low iteration counts.
			if _, err := replay(gen, recs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := replay(gen, recs)
				if err != nil {
					b.Fatal(err)
				}
				if st.LSN != recs[len(recs)-1].LSN {
					b.Fatalf("replay stopped at lsn %d", st.LSN)
				}
			}
		})
	}
}

// recoverLog returns the bytes of a one-segment log of exactly n records
// written by a live plane: Figure-4 jobs on 2x32 processors, released
// closely enough that about half are rejected, with an Observe after every
// 32nd job.
func recoverLog(b *testing.B, n int) []byte {
	mem := vfs.NewMem()
	p, _, err := OpenPlane(Config{
		FS: mem, Dir: "log", Procs: 64, Shards: 2, ProbeK: 1,
		Store: StoreOptions{Sync: SyncNever, SnapshotEvery: math.MaxInt32},
	})
	if err != nil {
		b.Fatal(err)
	}
	fig4 := workload.FigureJob{X: 16, T: 25, Alpha: 0.25, Laxity: 0.5}
	rng := rand.New(rand.NewSource(1))
	release, observed := 0.0, 0.0
	for id, records := 1, 0; records < n; id++ {
		release += rng.ExpFloat64() * 6
		p.Negotiate(fig4.Job(id, release, workload.Tunable)) // a rejection is journaled too
		records++
		if now := release - 50; id%32 == 0 && now > observed && records < n {
			p.Observe(now)
			observed = now
			records++
		}
	}
	if st := p.ExportState(); st.LSN != uint64(n) {
		b.Fatalf("log holds %d records, want %d", st.LSN, n)
	}
	p.Close()
	f, err := mem.Open(filepath.Join("log", segName(1)))
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkRecover measures what Open runs at restart: list the directory,
// stream the segment (read, check, decode, apply), then compact the
// recovered state into a fresh snapshot.  Each iteration opens its own
// in-memory copy of the log, prepared outside the timer.
func BenchmarkRecover(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			seg := recoverLog(b, n)
			gen, err := Genesis(64, 2, 0)
			if err != nil {
				b.Fatal(err)
			}
			fresh := func() vfs.FS {
				mem := vfs.NewMem()
				f, err := mem.Create(filepath.Join("log", segName(1)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Write(seg); err != nil {
					b.Fatal(err)
				}
				return mem
			}
			open := func(fs vfs.FS) {
				s, rec, err := Open(OpenConfig{FS: fs, Dir: "log", Genesis: gen})
				if err != nil {
					b.Fatal(err)
				}
				if rec.Records != n || rec.Torn {
					b.Fatalf("recovered %d records (torn=%v), want %d", rec.Records, rec.Torn, n)
				}
				s.Close()
			}
			// One untimed warmup, as in BenchmarkReplay.
			open(fresh())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := fresh()
				b.StartTimer()
				open(fs)
			}
		})
	}
}

// BenchmarkSnapshotEncode measures snapshot serialization, the other half
// of the recovery cost model (write amplification per compaction).
func BenchmarkSnapshotEncode(b *testing.B) {
	gen, recs := benchLog(10_000)
	st, err := replay(gen, recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := EncodeSnapshot(&st); len(buf) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
