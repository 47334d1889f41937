package tcp

import "repro/internal/simtime"

// rtoEstimator implements the RFC 6298 retransmission-timeout
// computation: SRTT/RTTVAR smoothing with a floor and exponential
// backoff on consecutive timeouts.
type rtoEstimator struct {
	srtt     simtime.Time
	rttvar   simtime.Time
	rto      simtime.Time
	sampled  bool
	backoffN uint
}

const (
	// rtoMin floors the retransmission timeout (the Linux value).
	rtoMin = 200 * simtime.Millisecond
	rtoMax = 60 * simtime.Second
)

func (r *rtoEstimator) init() {
	r.rto = 1 * simtime.Second // RFC 6298 initial value
}

func (r *rtoEstimator) sample(rtt simtime.Time) {
	if rtt <= 0 {
		rtt = simtime.Nanosecond
	}
	if !r.sampled {
		r.srtt = rtt
		r.rttvar = rtt / 2
		r.sampled = true
	} else {
		diff := r.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		r.rttvar = (3*r.rttvar + diff) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	r.backoffN = 0
	r.rto = r.srtt + 4*r.rttvar
	if r.rto < rtoMin {
		r.rto = rtoMin
	}
	if r.rto > rtoMax {
		r.rto = rtoMax
	}
}

// timeout returns the current RTO including any backoff.
func (r *rtoEstimator) timeout() simtime.Time {
	t := r.rto << r.backoffN
	if t > rtoMax || t <= 0 {
		t = rtoMax
	}
	return t
}

// backoff doubles the timeout after an expiry (Karn's algorithm).
func (r *rtoEstimator) backoff() {
	if r.backoffN < 10 {
		r.backoffN++
	}
}
