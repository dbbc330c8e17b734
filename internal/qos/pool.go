package qos

import (
	"milan/internal/resbroker"
)

// AttachBroker makes the dynamic arbitrator's machine size follow a
// resource broker's pool: every registration or deregistration triggers a
// renegotiation at the arbitrator's current time (the MILAN arbitrator
// "monitors system resources and triggers renegotiation on detecting a
// significant change in resource levels").
//
// threshold suppresses renegotiation for changes smaller than the given
// number of processors ("a significant change"); 0 renegotiates on every
// change.  The returned stop function detaches the subscription's effect
// (see resbroker.Broker.Follow).
func AttachBroker(d *DynamicArbitrator, b *resbroker.Broker, threshold int) (stop func()) {
	// Aborted jobs are surfaced through d.OnAborted.
	return b.Follow(d.Procs(), threshold, func(procs int) { _, _ = d.SetCapacity(procs) })
}
