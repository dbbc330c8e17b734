package durable

import (
	"bytes"
	"path/filepath"
	"testing"

	"milan/internal/core"
	"milan/internal/durable/vfs"
)

// FuzzRecordDecode: no byte sequence may panic the record decoder, and any
// payload that decodes cleanly must round-trip through encode/decode to the
// same record.  Truncated, bit-flipped and version-skewed (unknown-kind)
// inputs must come back as errors, never as crashes or silent garbage.
func FuzzRecordDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(EncodeRecord(&r))
	}
	// Adversarial seeds: empty, lone kind byte, unknown kind, giant counts.
	f.Add([]byte{})
	f.Add([]byte{byte(KindAdmit)})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	huge := EncodeRecord(&Record{Kind: KindAdmit, LSN: 1, Tenant: "t"})
	huge[len(huge)-4] = 0xff // inflate the task count field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		// A clean decode must re-encode to the exact input bytes: the
		// encoding is canonical, so decode(encode(decode(x))) == decode(x)
		// reduces to byte equality.
		re := EncodeRecord(&r)
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
		r2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if r2.Kind != r.Kind || r2.LSN != r.LSN || len(r2.Tasks) != len(r.Tasks) {
			t.Fatalf("re-decode drifted: %+v vs %+v", r2, r)
		}
	})
}

// FuzzSnapshotDecode: same contract for the snapshot decoder, whose inputs
// are larger and carry nested per-shard profiles and grant sets.
func FuzzSnapshotDecode(f *testing.F) {
	gen, err := Genesis(8, 2, 0)
	if err != nil {
		f.Fatal(err)
	}
	gen.LSN, gen.Now = 42, 17.5
	gen.Grants = []GrantRecord{{
		JobID: 7, Shard: 1, Chain: 2, Quality: 0.75, Tunable: true,
		Tenant: "acme", Class: 1,
		Tasks: []core.TaskPlacement{{Task: 0, Procs: 4, Start: 17.5, Finish: 21}},
	}}
	f.Add(EncodeSnapshot(&gen))
	empty, err := Genesis(1, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeSnapshot(&empty))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := DecodeSnapshot(payload)
		if err != nil {
			return
		}
		re := EncodeSnapshot(&st)
		st2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if err := DiffStates(&st2, &st); err != nil {
			t.Fatalf("snapshot round-trip drifted: %v", err)
		}
	})
}

// FuzzRecoverSegment: whatever bytes follow a valid segment header, Open
// must not panic and must recover exactly the records of the longest valid
// frame prefix (validPrefix), reporting a torn tail when bytes remain past
// it.  A prefix whose records cannot be applied must fail Open instead.
func FuzzRecoverSegment(f *testing.F) {
	var log []byte
	for i, r := range recoverSeedRecords() {
		r.LSN = uint64(i + 1)
		var frame bytes.Buffer
		writeFrame(&frame, EncodeRecord(&r))
		log = append(log, frame.Bytes()...)
	}
	f.Add(log)
	f.Add(log[:len(log)-3]) // torn final frame
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})

	gen, err := Genesis(8, 2, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := vfs.NewMem()
		seg, err := mem.Create(filepath.Join("log", segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSegHeader(seg, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Write(data); err != nil {
			t.Fatal(err)
		}

		prefix, torn := validPrefix(data)
		want, replayErr := replay(gen, prefix)
		_, rec, err := Open(OpenConfig{FS: mem, Dir: "log", Genesis: gen})
		if replayErr != nil {
			if err == nil {
				t.Fatalf("prefix fails to apply (%v) but Open succeeded", replayErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if rec.Records != len(prefix) || rec.Torn != torn || rec.State.LSN != uint64(len(prefix)) {
			t.Fatalf("recovered records=%d lsn=%d torn=%v, want %d torn=%v",
				rec.Records, rec.State.LSN, rec.Torn, len(prefix), torn)
		}
		if err := DiffStates(&rec.State, &want); err != nil {
			t.Fatalf("recovered state diverges from the prefix: %v", err)
		}
	})
}

// recoverSeedRecords is a short applicable log on Genesis(8, 2, 0).
func recoverSeedRecords() []Record {
	return []Record{
		{Kind: KindAdmit, Shard: 0, JobID: 1, Quality: 1, Tunable: true, Tenant: "acme", Tasks: onTask(2, 0, 5)},
		{Kind: KindReject, Shard: 1, JobID: 2},
		{Kind: KindObserve, Now: 6},
		{Kind: KindCapacity, Shard: 1, Procs: 5},
		{Kind: KindAdmit, Shard: 1, JobID: 3, Chain: 1, Quality: 0.5, Tasks: onTask(5, 6, 9)},
		{Kind: KindShed, JobID: 4, Tenant: "noisy", Reason: "tenant-quota"},
		{Kind: KindComplete, Shard: 1, JobID: 3, Finish: 9},
		{Kind: KindRenegotiate, Shard: 0, JobID: 1, Quality: 0.5, Tasks: onTask(1, 7, 8)},
	}
}
