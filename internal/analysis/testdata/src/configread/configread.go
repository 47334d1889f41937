// Package configread exercises the generation-discipline pass: fields
// marked p4:gen-seed only feed generation zero, so runtime code must
// read the live generation value instead.
package configread

// tuning is the immutable generation payload.
type tuning struct{ Rate float64 }

// config is the boot configuration.
type config struct {
	// Rate is the boot-time sample rate. Seed value only (p4:gen-seed).
	Rate float64
	// Name is static configuration; plain reads stay legal.
	Name string
}

type plane struct {
	cfg config
	tun tuning
}

// newPlane seeds generation zero from the boot config; its seed reads
// are the point of the marker.
//
// p4:gen-init
func newPlane(cfg config) *plane {
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	return &plane{cfg: cfg, tun: tuning{Rate: cfg.Rate}}
}

// process reads the generation value: the legal runtime read. The
// unmarked Name field stays readable anywhere.
func (p *plane) process() float64 {
	return p.tun.Rate + float64(len(p.cfg.Name))
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
