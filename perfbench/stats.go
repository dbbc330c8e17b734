package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency stands in for the latency of a request that failed: a
// failure misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// quantile returns the q-quantile of sorted samples by the nearest-rank
// method (the smallest sample with at least q of all samples at or below
// it), or 0 for no samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowed splits the samples that completed in [from, from+n*w) into n
// windows of length w and returns, per window, the number of samples and
// the q-quantile of their latency.
func windowed(s []sample, from, w time.Duration, n int, q float64) (counts []float64, quants []float64) {
	byWin := make([][]time.Duration, n)
	for _, x := range s {
		if x.at < from {
			continue
		}
		if i := int((x.at - from) / w); i < n {
			byWin[i] = append(byWin[i], x.lat)
		}
	}
	for _, lat := range byWin {
		sortDurations(lat)
		counts = append(counts, float64(len(lat)))
		quants = append(quants, float64(quantile(lat, q)))
	}
	return counts, quants
}

// rungStat is one rung of an offered-rate ladder as the sustained-rate
// selection sees it.
type rungStat struct {
	Offered float64       // negotiations that fell due per second, as measured
	P99     time.Duration // admit latency p99, from the intended send time
	Growing bool          // the backlog grew over the rung
}

// sustainedRate returns the highest offered rate on the ladder whose p99
// meets limit without a growing backlog.  Between that rung and the next
// (failing) one it interpolates on log p99 to the point where p99 would
// cross the limit, so the figure moves with the latency curve instead of
// jumping by whole rungs.  It returns 0 when no rung passes.
func sustainedRate(rungs []rungStat, limit time.Duration) float64 {
	best := -1
	for i, r := range rungs {
		if r.P99 <= limit && !r.Growing {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	lo := rungs[best]
	if best+1 >= len(rungs) {
		return lo.Offered
	}
	hi := rungs[best+1]
	if hi.P99 <= limit || lo.P99 <= 0 || hi.P99 <= lo.P99 {
		// The next rung failed on its backlog alone: no latency crossing
		// to interpolate toward.
		return lo.Offered
	}
	frac := math.Log(float64(limit)/float64(lo.P99)) / math.Log(float64(hi.P99)/float64(lo.P99))
	frac = math.Max(0, math.Min(1, frac))
	return lo.Offered + frac*(hi.Offered-lo.Offered)
}

// Span kinds, one per layer boundary the benchmark times from outside.
const (
	spRequest  uint8 = iota // loadgen.request: intended send to reply
	spRTT                   // qosnet.rtt: client send to reply
	spCall                  // durable.call: server-side call into the plane
	spDecide                // durable.decide: call start to the Observer callback
	spSnapshot              // durable.snapshot: snapshot Create to the closing SyncDir
	spFed                   // fed.call: one fed.Arbitrator negotiation
	spWrite                 // durable.fs.write: one File.Write
	spSync                  // durable.fs.sync: one File.Sync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"loadgen.request", "qosnet.rtt", "durable.call", "durable.decide",
	"durable.snapshot", "fed.call", "durable.fs.write", "durable.fs.sync",
}

// spanLevel orders the kinds from root to leaf: a span's parent is the
// deepest span of a lower level that contains its midpoint.
var spanLevel = [numSpanKinds]int{0, 1, 2, 3, 3, 4, 5, 5}

// span is one timed interval of one request.  Req is the job ID (-1 for
// work no request owns, such as a clock advance's journal write); times
// are Unix nanoseconds so spans from the client and the server process
// line up.
type span struct {
	Req   int64
	Start int64
	End   int64
	Kind  uint8
}

// selfTimes totals, per span kind, the self time of every request that
// has a root span: a span's duration minus the part of it its children
// cover.  It also returns the number of such requests, their total root
// duration, and the residual: root time not accounted to any layer's self
// time (children that overlap each other or stick out of their parent).
func selfTimes(spans []span) (self [numSpanKinds]int64, roots int, rootTotal, residual int64) {
	byReq := make(map[int64][]span)
	for _, s := range spans {
		if s.Req >= 0 && s.End >= s.Start {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	for _, group := range byReq {
		root := -1
		for i, s := range group {
			if s.Kind == spRequest {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		roots++
		rootDur := group[root].End - group[root].Start
		rootTotal += rootDur
		children := make([][][2]int64, len(group))
		attached := make([]bool, len(group))
		attached[root] = true
		for i, s := range group {
			if i == root {
				continue
			}
			if p := parentOf(group, i); p >= 0 {
				children[p] = append(children[p], [2]int64{s.Start, s.End})
				attached[i] = true
			}
		}
		var sum int64
		for i, s := range group {
			if !attached[i] {
				continue
			}
			st := (s.End - s.Start) - covered(s.Start, s.End, children[i])
			self[s.Kind] += st
			sum += st
		}
		residual += rootDur - sum
	}
	return self, roots, rootTotal, residual
}

// parentOf returns the index of the deepest span in group, of a lower
// level than group[i], whose interval contains group[i]'s midpoint, or -1.
func parentOf(group []span, i int) int {
	s := group[i]
	mid := s.Start + (s.End-s.Start)/2
	best := -1
	for j, p := range group {
		if j == i || spanLevel[p.Kind] >= spanLevel[s.Kind] || mid < p.Start || mid > p.End {
			continue
		}
		if best < 0 || spanLevel[p.Kind] > spanLevel[group[best].Kind] {
			best = j
		}
	}
	return best
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, iv := range c {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}
