package main

import (
	"fmt"
	"time"
)

// tracedLeg is one half of a traced run: the load it saw, the per-layer
// counts over its window and, on the traced half, every span.
type tracedLeg struct {
	t     tally
	win   counters
	spans []span
}

// layerMetrics sets the per-layer metrics from a traced run's two legs:
// bare is the plane as junctiond wires it (it gives the Go heap figures
// and the untraced latency), traced is the same load with the timing
// wrappers installed.
func layerMetrics(o *outcome, bare, traced tracedLeg) {
	ratio := func(name, unit string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		o.set(name, unit, v)
	}
	w := traced.win
	dec := float64(w.Decisions)

	// Durations of every span by kind; per-request joins for the wire.
	var byKind [numSpanKinds][]time.Duration
	calls := make(map[int64]int64)
	var callTotal, fsTotal int64
	for _, s := range traced.spans {
		d := s.End - s.Start
		byKind[s.Kind] = append(byKind[s.Kind], time.Duration(d))
		switch {
		case s.Kind == spCall:
			calls[s.Req] = d
			callTotal += d
		case (s.Kind == spWrite || s.Kind == spSync) && s.Req >= 0:
			fsTotal += d
		}
	}
	var wire []time.Duration
	for _, s := range traced.spans {
		if c, ok := calls[s.Req]; ok && s.Kind == spRTT {
			wire = append(wire, time.Duration(s.End-s.Start-c))
		}
	}
	for k := range byKind {
		sortDurations(byKind[k])
	}
	sortDurations(wire)
	q := func(k uint8, p float64) float64 { return us(quantile(byKind[k], p)) }

	o.set("qosnet.rtt_p50_us", "us", q(spRTT, 0.50))
	o.set("qosnet.wire_p50_us", "us", us(quantile(wire, 0.50)))
	o.set("qosnet.wire_p99_us", "us", us(quantile(wire, 0.99)))
	ratio("qosnet.bytes_per_op", "B", float64(w.WireBytes), float64(w.Ops))

	o.set("durable.call_p50_us", "us", q(spCall, 0.50))
	o.set("durable.call_p99_us", "us", q(spCall, 0.99))
	o.set("durable.decide_p50_us", "us", q(spDecide, 0.50))
	o.set("durable.decide_p99_us", "us", q(spDecide, 0.99))
	o.set("durable.fsync_p50_us", "us", q(spSync, 0.50))
	o.set("durable.fsync_p99_us", "us", q(spSync, 0.99))
	ratio("durable.fsyncs_per_decision", "count", float64(w.Fsyncs), dec)
	ratio("durable.journal_share", "ratio", float64(fsTotal), float64(callTotal))
	o.set("durable.snapshots", "count", float64(w.Snapshots))
	o.set("durable.snapshot_p99_ms", "ms", q(spSnapshot, 0.99)/1000)
	ratio("durable.write_bytes_per_decision", "B", float64(w.WriteBytes), dec)

	o.set("fed.call_p50_us", "us", q(spFed, 0.50))
	o.set("fed.call_p99_us", "us", q(spFed, 0.99))
	ratio("fed.probes_per_decision", "count", float64(w.Probes), dec)
	ratio("fed.commit_races_per_decision", "count", float64(w.Races), dec)
	ratio("fed.nonbest_commits_per_decision", "count", float64(w.NonBest), dec)

	ratio("core.chains_tried_per_decision", "count", float64(w.ChainsTried), dec)
	ratio("core.holes_probed_per_decision", "count", float64(w.HolesProbed), dec)
	ratio("core.plan_failures_per_decision", "count", float64(w.PlanFails), dec)
	ratio("core.index_rebuilds_per_decision", "count", float64(w.Rebuilds), dec)
	ratio("core.index_leaf_updates_per_decision", "count", float64(w.LeafUpdates), dec)
	ratio("core.descent_steps_per_descent", "count", float64(w.DescentStep), float64(w.Descents))

	ratio("go.alloc_bytes_per_decision", "B", float64(bare.win.AllocBytes), float64(bare.win.Decisions))
	o.set("go.gc_pause_ms", "ms", bare.win.GCPauseMs)

	// Self time per request, by layer, and what no layer accounts for.
	self, roots, rootTotal, residual := selfTimes(traced.spans)
	perReq := func(ns int64) float64 {
		if roots == 0 {
			return 0
		}
		return float64(ns) / float64(roots) / 1e3
	}
	largest := 0
	for k := range self {
		o.set("self."+spanNames[k]+"_us", "us", perReq(self[k]))
		if self[k] > self[largest] {
			largest = k
		}
	}
	o.set("self.residual_us", "us", perReq(residual))
	fmt.Printf("self time over %d traced requests (mean %.1f us each); largest: %s\n",
		roots, perReq(rootTotal), spanNames[largest])

	b, t := us(quantile(latencies(bare.t.neg), 0.5)), us(quantile(latencies(traced.t.neg), 0.5))
	o.set("trace.untraced_p50_us", "us", b)
	o.set("trace.traced_p50_us", "us", t)
	o.set("trace.overhead_p50_us", "us", t-b)
}
