package main

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/faultnet"
	"repro/internal/packet"
	"repro/internal/psarchiver"
	"repro/internal/simtime"
	"repro/internal/sketch"
)

// The isolated kernels time one layer's public entry point alone, over
// the traced workload's own keys and reports. They are per-layer
// metrics only: each says how much one call costs, not how much of the
// run it was (the spans say that).

// kernelSink keeps results alive so the compiler cannot drop the calls.
var kernelSink uint64

// perItemNs runs body (which handles n items) five times and returns the
// median time per item in nanoseconds.
func perItemNs(n int, body func()) float64 {
	if n == 0 {
		return 0
	}
	var reps []float64
	for i := 0; i < 5; i++ {
		t0 := nowNs()
		body()
		reps = append(reps, float64(nowNs()-t0)/float64(n))
	}
	return median(reps)
}

// kernelItems is how many items each isolated kernel handles per
// repetition in a benchmark run (the tests pass fewer).
const kernelItems = 1 << 18

// keyKernels times hashing and the sketch structures over the
// workload's flow keys, cycling them until each kernel has handled about
// items of them.
func keyKernels(flows []int, items int, into map[string]float64) {
	if len(flows) == 0 {
		return
	}
	tuples := make([]packet.FiveTuple, len(flows))
	keys := make([]dataplane.FlowKey, len(flows))
	lkeys := make([]sketch.Key, len(flows))
	for i, g := range flows {
		tuples[i] = synthTuple(g)
		keys[i] = dataplane.KeyOf(tuples[i])
		lkeys[i] = sketch.Key(keys[i])
	}
	rounds := 1 + items/len(keys)
	n := rounds * len(keys)
	each := func(f func(i int)) func() {
		return func() {
			for r := 0; r < rounds; r++ {
				for i := range keys {
					f(i)
				}
			}
		}
	}
	into["dataplane.hash_ns_per_key"] = perItemNs(n, each(func(i int) {
		kernelSink += uint64(dataplane.KeyOf(tuples[i]).Hash())
	}))
	cfg := dataplane.Config{}.WithDefaults()
	cms := dataplane.NewCMS(cfg.CMSWidth, cfg.CMSDepth)
	into["dataplane.cms_update_ns_per_key"] = perItemNs(n, each(func(i int) {
		kernelSink += cms.UpdateKey(keys[i], 1500)
	}))
	lean := sketch.NewLean(sketch.Config{})
	into["sketch.observe_ns_per_key"] = perItemNs(n, each(func(i int) { lean.Observe(&lkeys[i], 1500) }))
	seq := uint64(0)
	into["sketch.seenseq_ns_per_key"] = perItemNs(n, each(func(i int) {
		seq += 1460
		if lean.SeenSeq(&lkeys[i], seq) {
			kernelSink++
		}
	}))
	scms := sketch.NewCMS(lean.Geometry())
	into["sketch.cms_update_ns_per_key"] = perItemNs(n, each(func(i int) { scms.Update(&lkeys[i], 1500) }))
	into["sketch.estimate_ns_per_key"] = perItemNs(n, each(func(i int) {
		b, _, _ := lean.Estimate(&lkeys[i])
		kernelSink += b
	}))
}

// planeKernels times the control plane's and the operator's read calls
// on the data plane the traced pass left, then one aging sweep (last:
// it evicts).
func planeKernels(p *ingestPass, into map[string]float64) {
	flows := p.st.keyFlows
	if len(flows) > 2048 {
		flows = flows[:2048]
	}
	keys := make([]dataplane.FlowKey, len(flows))
	ids := make([][2]dataplane.FlowID, len(flows))
	for i, g := range flows {
		ft := synthTuple(g)
		keys[i] = dataplane.KeyOf(ft)
		ids[i] = [2]dataplane.FlowID{dataplane.HashFiveTuple(ft), dataplane.HashReverse(ft)}
	}
	into["dataplane.estimate_ns_per_flow"] = perItemNs(len(keys), func() {
		for i := range keys {
			kernelSink += p.pipes.EstimateFlow(keys[i]).Bytes
		}
	})
	into["dataplane.read_flow_ns"] = perItemNs(len(ids), func() {
		for i := range ids {
			snap := p.pipes.ReadFlow(ids[i][0], ids[i][1])
			hist := p.pipes.ReadRTTHist(ids[i][0])
			kernelSink += snap.Bytes + hist.Buckets[0]
		}
	})
	window := simtime.Duration(p.w.agingWindow)
	if window == 0 {
		window = simtime.Second
	}
	t0 := nowNs()
	p.pipes.AgeFlows(p.engine.Now(), window)
	into["dataplane.age_ms_per_sweep"] = float64(nowNs()-t0) / 1e6
}

// reportKernels times marshalling, the pipeline, the store and the two
// transports over the reports the traced pass captured.
func reportKernels(reports []controlplane.Report, items int, into map[string]float64) error {
	if len(reports) == 0 {
		return nil
	}
	into["resilient.marshal_ns_per_report"] = perItemNs(len(reports), func() {
		for i := range reports {
			b, _ := reports[i].MarshalJSONLine() // a Report always encodes
			kernelSink += uint64(len(b))
		}
	})
	lines := make([][]byte, len(reports))
	docs := make([]psarchiver.Document, len(reports))
	for i := range reports {
		b, err := reports[i].MarshalJSONLine()
		if err != nil {
			return err
		}
		lines[i] = b
		if err := json.Unmarshal(b, &docs[i]); err != nil {
			return fmt.Errorf("kernels: decoding a captured report: %w", err)
		}
	}
	bare := psarchiver.NewPipeline() // filters and routing, no output
	into["psarchiver.process_ns_per_doc"] = perItemNs(len(docs), func() {
		for _, d := range docs {
			bare.Process(d)
		}
	})
	store := psarchiver.NewStore()
	into["psarchiver.index_ns_per_doc"] = perItemNs(len(docs), func() {
		for _, d := range docs {
			store.Index(metricIndex, d)
		}
	})

	// The same lines, one Write per line as the shipper sends them, over
	// TCP loopback into a fresh TCPInput and then through faultnet's
	// in-memory pipe into another.
	rounds := 1 + items/16/len(lines)
	total := rounds * len(lines)
	transport := func(listen func(*psarchiver.Pipeline) (*psarchiver.TCPInput, func() (net.Conn, error), error)) (float64, error) {
		pl := psarchiver.NewPipeline()
		pl.OpenSearchOutput(psarchiver.NewStore())
		in, dial, err := listen(pl)
		if err != nil {
			return 0, err
		}
		defer in.Close()
		conn, err := dial()
		if err != nil {
			return 0, err
		}
		t0 := nowNs()
		for r := 0; r < rounds; r++ {
			for _, l := range lines {
				if _, err := conn.Write(l); err != nil {
					_ = conn.Close() // the write error is the one to report
					return 0, err
				}
			}
		}
		deadline := time.Now().Add(drainTimeout)
		for pl.Stats().Shipped < uint64(total) {
			if time.Now().After(deadline) {
				_ = conn.Close()
				return 0, fmt.Errorf("kernels: %d of %d lines ingested", pl.Stats().Shipped, total)
			}
			runtime.Gosched()
		}
		ns := float64(nowNs()-t0) / float64(total)
		return ns, conn.Close()
	}
	var err error
	into["psarchiver.input_ns_per_line"], err = transport(func(pl *psarchiver.Pipeline) (*psarchiver.TCPInput, func() (net.Conn, error), error) {
		in, err := psarchiver.NewTCPInput(pl, "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		return in, func() (net.Conn, error) { return net.DialTimeout("tcp", in.Addr(), 5*time.Second) }, nil
	})
	if err != nil {
		return err
	}
	into["faultnet.pipe_ns_per_line"], err = transport(func(pl *psarchiver.Pipeline) (*psarchiver.TCPInput, func() (net.Conn, error), error) {
		ln := faultnet.NewListener()
		return psarchiver.NewInputFromListener(pl, ln), ln.Dial, nil
	})
	return err
}
