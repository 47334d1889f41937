package dataplane

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// Tuning is the data plane's runtime-tunable parameter set: the
// thresholds a control plane may retune while packets flow, as opposed
// to the compile-time table geometry in Config. It is a pure value, so
// genconfig can publish it as an immutable generation; the pipeline
// loads one generation per batch front (and per ProcessCopy) and reads
// every threshold from that snapshot — a reconfiguration is either
// entirely visible to a batch or entirely invisible (DESIGN.md §5.7).
type Tuning struct {
	// LongFlowBytes is the byte volume at which a flow is declared
	// "long" and announced to the control plane.
	LongFlowBytes uint64
	// BurstFactor, BurstEndFactor, BurstFloor and BurstBaselineTau
	// parameterise the §3.3.3 microburst detector exactly as their
	// Config seed fields do.
	BurstFactor      float64
	BurstEndFactor   float64
	BurstFloor       simtime.Time
	BurstBaselineTau simtime.Time
}

// TuningFrom extracts generation 0 of the runtime tuning from a
// defaulted Config.
//
// p4:gen-init
func TuningFrom(c Config) Tuning {
	return Tuning{
		LongFlowBytes:    c.LongFlowBytes,
		BurstFactor:      c.BurstFactor,
		BurstEndFactor:   c.BurstEndFactor,
		BurstFloor:       c.BurstFloor,
		BurstBaselineTau: c.BurstBaselineTau,
	}
}

// Validate rejects parameter sets the detector pipeline cannot run
// with; UpdateTuning calls it on every candidate generation, so an
// invalid transaction publishes nothing.
func (t Tuning) Validate() error {
	if t.LongFlowBytes == 0 {
		return fmt.Errorf("dataplane: long-flow threshold must be positive")
	}
	if t.BurstFactor <= 1 || math.IsNaN(t.BurstFactor) || math.IsInf(t.BurstFactor, 0) {
		return fmt.Errorf("dataplane: burst factor %g must exceed 1", t.BurstFactor)
	}
	if t.BurstEndFactor <= 0 || t.BurstEndFactor > t.BurstFactor {
		return fmt.Errorf("dataplane: burst end factor %g must be in (0, factor]", t.BurstEndFactor)
	}
	if t.BurstFloor <= 0 {
		return fmt.Errorf("dataplane: burst floor must be positive")
	}
	if t.BurstBaselineTau <= 0 {
		return fmt.Errorf("dataplane: baseline tau must be positive")
	}
	return nil
}

// UpdateTuning transactionally publishes a tuning change: mut runs
// against a scratch copy of the current generation, the result is
// validated, and either the complete new generation is installed with
// one CAS or nothing changes. Safe to call from any goroutine while
// packets flow; in-flight batches finish on the generation they
// loaded, and the next batch front reads the new one.
func (d *DataPlane) UpdateTuning(mut func(*Tuning) error) error {
	_, err := d.tuning.Publish(func(cur Tuning) (Tuning, error) {
		next := cur
		if err := mut(&next); err != nil {
			return Tuning{}, err
		}
		if err := next.Validate(); err != nil {
			return Tuning{}, err
		}
		return next, nil
	})
	return err
}

// CurrentTuning returns a copy of the live tuning generation.
func (d *DataPlane) CurrentTuning() Tuning { return d.tuning.Current() }

// TuningSeq returns the live tuning generation's sequence number: the
// count of successful UpdateTuning calls.
func (d *DataPlane) TuningSeq() uint64 { return d.tuning.Seq() }

// UpdateTuning publishes a tuning change shared by every shard (the
// front-end holds one store; the paper's control plane programs all
// pipes identically).
func (p *Pipes) UpdateTuning(mut func(*Tuning) error) error { return p.shards[0].UpdateTuning(mut) }

// CurrentTuning returns a copy of the live tuning generation.
func (p *Pipes) CurrentTuning() Tuning { return p.shards[0].CurrentTuning() }

// TuningSeq returns the shared tuning store's sequence number.
func (p *Pipes) TuningSeq() uint64 { return p.shards[0].TuningSeq() }
