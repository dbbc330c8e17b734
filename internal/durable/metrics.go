package durable

import "milan/internal/obs"

// Metrics is the durability layer's observability surface, resolved once
// against an obs.Registry under the durable_ namespace so the append path
// only touches atomics.
type Metrics struct {
	Appends       *obs.Counter // records appended to the log
	Fsyncs        *obs.Counter // file syncs issued by the append path
	AppendLatency *obs.Stat    // seconds per append (write + policy sync)

	Snapshots        *obs.Counter // snapshots written (including on open)
	SnapshotBytes    *obs.Gauge   // size of the newest snapshot file
	SnapshotDuration *obs.Stat    // seconds per snapshot compaction

	RecoveryReplay  *obs.Stat    // seconds of the one-pass recovery at open (read, decode, apply)
	RecoveryRecords *obs.Counter // log records replayed at open
	TornTails       *obs.Counter // recoveries that stopped at a torn tail
	Poisoned        *obs.Gauge   // 1 when the store refused further writes
}

// NewMetrics resolves the durability instruments in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Appends:          reg.Counter("durable_appends"),
		Fsyncs:           reg.Counter("durable_fsyncs"),
		AppendLatency:    reg.Stat("durable_append_seconds"),
		Snapshots:        reg.Counter("durable_snapshots"),
		SnapshotBytes:    reg.Gauge("durable_snapshot_bytes"),
		SnapshotDuration: reg.Stat("durable_snapshot_seconds"),
		RecoveryReplay:   reg.Stat("durable_recovery_replay_seconds"),
		RecoveryRecords:  reg.Counter("durable_recovery_records"),
		TornTails:        reg.Counter("durable_torn_tails"),
		Poisoned:         reg.Gauge("durable_poisoned"),
	}
	reg.Describe("durable_appends", "WAL records appended")
	reg.Describe("durable_fsyncs", "file syncs issued by the WAL append path")
	reg.Describe("durable_append_seconds", "seconds per WAL append (write plus policy sync)")
	reg.Describe("durable_snapshots", "durable snapshots written (including at open)")
	reg.Describe("durable_snapshot_bytes", "size in bytes of the newest snapshot file")
	reg.Describe("durable_snapshot_seconds", "seconds per snapshot compaction")
	reg.Describe("durable_recovery_replay_seconds", "seconds of the one-pass WAL recovery at open: read, decode and apply")
	reg.Describe("durable_recovery_records", "WAL records replayed at open")
	reg.Describe("durable_torn_tails", "recoveries that stopped at a torn or corrupt log tail")
	reg.Describe("durable_poisoned", "1 when the store has refused further writes after an I/O error")
	return m
}
