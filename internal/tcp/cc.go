package tcp

import (
	"math"

	"repro/internal/simtime"
)

const (
	cubicC    = 0.4 // aggressiveness constant, segments/sec^3
	cubicBeta = 0.7 // multiplicative decrease factor
	// initialCwnd is the initial congestion window in segments (RFC 6928).
	initialCwnd = 10
)

// cubic is the sender's congestion control: CUBIC (RFC 8312), the
// Linux default the testbed DTNs run. Windows are tracked in bytes.
// Loss recovery (NewReno with SACK, RFC 6582/6675) is the sender's
// (sender.go); this type only computes the window.
type cubic struct {
	mss      float64
	cwnd     float64 // bytes
	ssthresh float64 // bytes
	wMax     float64 // segments, window before the last reduction
	k        float64 // seconds to regrow to wMax
	epoch    simtime.Time
	hasEpoch bool
	// TCP-friendly region estimate
	wEst   float64 // segments
	ackCnt float64
}

func newCubic(mss int) *cubic {
	return &cubic{
		mss:      float64(mss),
		cwnd:     initialCwnd * float64(mss),
		ssthresh: math.MaxFloat64,
	}
}

func (c *cubic) window() float64 { return c.cwnd }

// onAck processes a cumulative acknowledgment of acked bytes outside
// fast recovery.
func (c *cubic) onAck(acked int, now simtime.Time) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(acked)
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh
		}
		return
	}
	// Congestion avoidance, cubic growth.
	if !c.hasEpoch {
		c.epoch = now
		c.hasEpoch = true
		segs := c.cwnd / c.mss
		if c.wMax < segs {
			c.wMax = segs
		}
		c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		c.wEst = segs
		c.ackCnt = 0
	}
	t := (now - c.epoch).Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax // segments

	// TCP-friendly window (standard AIMD estimate).
	c.ackCnt += float64(acked) / c.mss
	segs := c.cwnd / c.mss
	if c.ackCnt >= segs {
		c.wEst += 1
		c.ackCnt = 0
	}
	if target < c.wEst {
		target = c.wEst
	}

	if target > segs {
		// Approach the target over roughly one RTT worth of ACKs.
		c.cwnd += (target - segs) / segs * float64(acked)
	} else {
		// Tiny growth to stay responsive even above target.
		c.cwnd += c.mss * 0.01 * float64(acked) / c.cwnd
	}
}

// onLoss reacts to entering fast recovery (triple duplicate ACK).
func (c *cubic) onLoss() {
	segs := c.cwnd / c.mss
	// Fast convergence: release bandwidth faster when the window is
	// still below the previous wMax (another flow is ramping up).
	if segs < c.wMax {
		c.wMax = segs * (1 + cubicBeta) / 2
	} else {
		c.wMax = segs
	}
	c.cwnd = math.Max(c.cwnd*cubicBeta, 2*c.mss)
	c.ssthresh = c.cwnd
	c.hasEpoch = false
}

// onTimeout reacts to an RTO expiry.
func (c *cubic) onTimeout() {
	segs := c.cwnd / c.mss
	if segs < c.wMax {
		c.wMax = segs * (1 + cubicBeta) / 2
	} else {
		c.wMax = segs
	}
	c.ssthresh = math.Max(c.cwnd*cubicBeta, 2*c.mss)
	c.cwnd = c.mss
	c.hasEpoch = false
}

func (c *cubic) inSlowStart() bool { return c.cwnd < c.ssthresh }

// exitSlowStart ends the exponential phase at the current window: the
// HyStart delay-based exit, triggered by the sender when RTT samples
// show the queue building.
func (c *cubic) exitSlowStart() {
	c.ssthresh = c.cwnd
	segs := c.cwnd / c.mss
	if c.wMax < segs {
		c.wMax = segs
	}
}
