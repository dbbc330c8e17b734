package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"milan/internal/durable/vfs"
	"milan/internal/qos"
)

// testdata/wal-1shard is a one-shard log — the snapshot at LSN 200 plus a
// 60-record tail segment — written by fixtureDrive (Procs 16, ProbeK 1,
// SnapshotEvery fixtureSnapEvery, over vfs.OS) when a one-shard durable
// plane still wrapped the monolithic qos.Arbitrator.  It pins that logs
// written by a default (-admit-shards 1) junctiond recover unchanged now
// that the plane is federated at every shard count.  Regenerating it from
// the current plane would make the test vacuous: keep the committed bytes.
const (
	fixtureDir       = "testdata/wal-1shard"
	fixtureJobs      = 120
	fixtureSeed      = 43
	fixtureSnapEvery = 100
)

// fixtureDrive is the op stream behind the fixture: every job is observed
// at its release and negotiated (120 decisions), and every third grant
// completes at that release.
func fixtureDrive(t *testing.T, p *Plane) {
	t.Helper()
	granted := 0
	for _, job := range planeStream(fixtureJobs, fixtureSeed) {
		p.Observe(job.Release)
		g, err := p.Negotiate(job)
		if err != nil && !errors.Is(err, qos.ErrRejected) {
			t.Fatalf("job %d: %v", job.ID, err)
		}
		if err == nil {
			if granted++; granted%3 == 0 {
				if err := p.JobCompleted(g.JobID, job.Release); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOneShardFixtureRecovers: the committed one-shard log recovers to
// exactly the state a fresh one-shard plane reaches on the same op
// stream and snapshot cadence, and both keep deciding identically.
func TestOneShardFixtureRecovers(t *testing.T) {
	dir := t.TempDir()
	names, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		b, err := os.ReadFile(filepath.Join(fixtureDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store := StoreOptions{SnapshotEvery: fixtureSnapEvery}
	p, rec, err := OpenPlane(Config{FS: vfs.OS{}, Dir: dir, Procs: 16, Shards: 1, ProbeK: 1, Store: store})
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer p.Close()
	if rec.Torn || rec.SnapshotLSN != 200 || rec.Records != 60 {
		t.Fatalf("fixture recovery = snapshot %d + %d records (torn %v), want snapshot 200 + 60 records",
			rec.SnapshotLSN, rec.Records, rec.Torn)
	}

	ref, _ := openPlane(t, vfs.NewMem(), 1, store)
	defer ref.Close()
	fixtureDrive(t, ref)

	got, want := p.ExportState(), ref.ExportState()
	if got.LSN != want.LSN {
		t.Fatalf("recovered LSN %d, fresh plane LSN %d", got.LSN, want.LSN)
	}
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("fixture recovered to a different state than a fresh plane: %v", err)
	}

	tail := planeStream(fixtureJobs+40, fixtureSeed)[fixtureJobs:]
	gp := drive(t, p.Observe, p.Negotiate, tail)
	gr := drive(t, ref.Observe, ref.Negotiate, tail)
	if len(gp) != len(gr) {
		t.Fatalf("post-recovery grants %d vs %d", len(gp), len(gr))
	}
	got, want = p.ExportState(), ref.ExportState()
	if err := DiffStates(&got, &want); err != nil {
		t.Fatalf("post-recovery divergence: %v", err)
	}
}
