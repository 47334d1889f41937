package dataplane

import "repro/internal/sketch"

// CMS is the count-min sketch the paper's data plane uses to detect
// long flows before dedicating per-flow register state to them (§4),
// counting bytes: a sketch.CMS addressed by longFlowHash of the flow
// key. The packet path bypasses these methods and adds the hashes it
// computed at parse.
type CMS struct{ s *sketch.CMS }

// NewCMS builds a sketch with the given geometry. Width is the number
// of counters per row; depth is the number of hash rows.
func NewCMS(width, depth int) *CMS {
	return &CMS{sketch.NewCMS(sketch.GeometryOf(width, depth))}
}

// cmsHash is longFlowHash from the key alone. crcPair is the fast
// fixed-length CRC routine; the reversed ID it also yields is unused.
//
// p4:hotpath
func cmsHash(k *FlowKey) sketch.Hash {
	id, _ := crcPair(k)
	return longFlowHash(id, k.sketchKey().Hash())
}

// UpdateKey adds count bytes to the flow's counters and returns the new
// estimate (the conservative minimum across rows).
//
// p4:hotpath
func (c *CMS) UpdateKey(k FlowKey, count uint64) uint64 {
	return c.s.Add(cmsHash(&k), count)
}

// Clear zeroes the sketch. The data plane periodically resets it so
// stale flows do not saturate the counters.
func (c *CMS) Clear() { c.s.Clear() }
