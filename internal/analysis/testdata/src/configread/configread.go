// Package configread exercises the generation-discipline pass: fields
// marked p4:gen-seed only feed generation zero, so runtime code must
// read the pinned generation value, and every Acquire on a generation
// store needs a matching Release.
package configread

// tuning is the immutable generation payload.
type tuning struct{ Rate float64 }

type gen struct{ v tuning }

func (g *gen) Value() tuning { return g.v }

// store is a stand-in for genconfig.Store: the pass recognises it by
// its Acquire/Release/Publish method set.
type store struct{ cur *gen }

func (s *store) Acquire() *gen                                    { return s.cur }
func (s *store) Release(g *gen)                                   {}
func (s *store) Publish(build func(tuning) (tuning, error)) error { return nil }

// config is the boot configuration.
type config struct {
	// Rate is the boot-time sample rate. Seed value only (p4:gen-seed).
	Rate float64
	// Name is static configuration; plain reads stay legal.
	Name string
}

type plane struct {
	cfg  config
	gens *store
}

// newPlane seeds the generation store from the boot config; its seed
// reads are the point of the marker.
//
// p4:gen-init
func newPlane(cfg config) *plane {
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	return &plane{cfg: cfg, gens: &store{cur: &gen{v: tuning{Rate: cfg.Rate}}}}
}

// process pins one generation per batch: the legal runtime read. The
// unmarked Name field stays readable anywhere.
func (p *plane) process() float64 {
	g := p.gens.Acquire()
	defer p.gens.Release(g)
	return g.Value().Rate + float64(len(p.cfg.Name))
}

// stale reads the seed copy on the runtime path: the bug class, blind
// to every reconfiguration published since boot.
func (p *plane) stale() float64 {
	return p.cfg.Rate // want "read of seed-only config field config.Rate bypasses the generation snapshot"
}

// reseed only writes the seed copy; assignment targets are the seeding
// path's business and cannot leak a stale value.
func (p *plane) reseed(r float64) {
	p.cfg.Rate = r
}

// leak acquires a generation and drops it: retirement never drains.
func (p *plane) leak() float64 {
	g := p.gens.Acquire() // want "generation acquired in leak but never released"
	return g.Value().Rate
}

// handoff legitimately passes the pinned generation to its caller and
// documents why.
func (p *plane) handoff() *gen {
	return p.gens.Acquire() //p4:lint-exempt configread: caller releases after its batch completes
}

// pool is not a generation store (no Publish method): its
// Acquire/Release pairing is out of scope for this pass.
type pool struct{ free []int }

func (p *pool) Acquire() int {
	n := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return n
}

func (p *pool) Release(n int) { p.free = append(p.free, n) }

func usePool(p *pool) int { return p.Acquire() }
