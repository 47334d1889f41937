package simtime

// RNG is a small, fast, deterministic random number generator
// (SplitMix64). The simulator cannot use math/rand's global source or
// wall-clock seeding: every run must be reproducible from an explicit
// seed so that experiments regenerate the same figures.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Fork derives an independent generator from this one. Components that
// need their own stream (per-link loss, per-flow jitter) fork the
// scenario RNG so that adding a component does not perturb the streams
// of existing ones.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
