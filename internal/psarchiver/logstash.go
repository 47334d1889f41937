package psarchiver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/controlplane"
)

// Output ships a processed document, like Logstash's output plugins.
type Output func(index string, doc Document)

// indexPrefix namespaces the destination indices: a document lands in
// "p4-psonar-<kind>", the way perfSONAR's Logstash configuration routes
// test results.
const indexPrefix = "p4-psonar"

var kindField = controlplane.LookupField("kind")

// indexNames holds the index of every kind the control plane emits, so
// routing a report formats nothing.
var indexNames = func() map[string]string {
	m := make(map[string]string)
	for _, kind := range []string{
		controlplane.KindMetric, controlplane.KindAggregate, controlplane.KindFlowSummary,
		controlplane.KindMicroburst, controlplane.KindAlert, controlplane.KindLimitation, "unknown",
	} {
		m[kind] = indexPrefix + "-" + kind
	}
	return m
}()

// Pipeline is the Logstash stand-in of Figure 7: events enter from an
// input plugin, get the metadata the OpenSearch output needs
// (AddMetadata, the one filter), and exit through the outputs, routed
// to an OpenSearch index by their report kind.
type Pipeline struct {
	// outputs is the output chain, replaced whole (copy on write) by
	// AddOutput and loaded once per document.
	outputs atomic.Pointer[[]Output]
	mu      sync.Mutex // serialises the writers of outputs

	// The TCP input counts from per-connection goroutines while callers
	// poll. received is bumped before the document's shipped, and Stats
	// loads it last, so no snapshot shows more documents leaving than
	// entering.
	received atomic.Uint64
	shipped  atomic.Uint64
}

// PipelineStats is a snapshot of the pipeline counters in which
// Received >= Shipped + Dropped, with equality once the pipeline is idle.
type PipelineStats struct {
	Received uint64
	// Dropped is 0 by construction: the pipeline has no filter that
	// drops a document. Undecodable TCP lines are the input's errors.
	Dropped uint64
	Shipped uint64
}

// Stats returns the current counters.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{Shipped: p.shipped.Load()}
	st.Received = p.received.Load()
	return st
}

// NewPipeline builds a pipeline with no outputs.
func NewPipeline() *Pipeline { return &Pipeline{} }

// AddOutput appends an output plugin.
func (p *Pipeline) AddOutput(o Output) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var next []Output
	if cur := p.outputs.Load(); cur != nil {
		next = slices.Clone(*cur)
	}
	next = append(next, o)
	p.outputs.Store(&next)
}

// OpenSearchOutput wires the pipeline's output plugin to a Store.
func (p *Pipeline) OpenSearchOutput(store *Store) {
	p.AddOutput(store.Index)
}

// AddMetadata is the pipeline's filter (the "adds the metadata
// required by the OpenSearch database" step of Figure 7): it stamps the
// document with the fields the OpenSearch output needs — @version,
// host, pipeline, and @timestamp_ns when there is a time_ns to copy —
// producing Report_v2.
func AddMetadata(doc *Document) {
	doc.meta = true
	if t, ok := doc.Extra["time_ns"]; ok { // a document that did not arrive typed
		doc.Extra["@timestamp_ns"] = t
	}
}

// Process pushes one document through the filter and the outputs.
func (p *Pipeline) Process(doc Document) { p.process(&doc) }

// process is Process on a document the caller owns: the filter changes
// it in place, and each output gets a copy.
func (p *Pipeline) process(doc *Document) {
	p.received.Add(1)
	AddMetadata(doc)
	var outputs []Output
	if cur := p.outputs.Load(); cur != nil {
		outputs = *cur
	}
	kind := doc.str(kindField, "kind")
	if kind == "" {
		kind = "unknown"
	}
	index, ok := indexNames[kind]
	if !ok {
		index = indexPrefix + "-" + kind // pscheduler_* documents, foreign kinds
	}
	for _, o := range outputs {
		o(index, *doc)
	}
	p.shipped.Add(1)
}

// Emit implements controlplane.Sink, the in-simulation input plugin:
// the control plane hands Report_v1 records straight to the pipeline.
func (p *Pipeline) Emit(r controlplane.Report) {
	p.Process(NewDocument(r, nil))
}

// TCPInput is the Logstash TCP input plugin [12 in the paper]: it
// accepts connections carrying newline-delimited JSON and feeds each
// line into the pipeline. Used by the live collector daemon.
type TCPInput struct {
	pipeline *Pipeline
	ln       net.Listener
	wg       sync.WaitGroup

	// Always counted, by the per-connection goroutines; RegisterObs
	// and Errors read them.
	conns  atomic.Uint64
	lines  atomic.Uint64 // NDJSON lines, decodable or not
	errors atomic.Uint64 // undecodable lines, oversized lines, read errors
	// Lines the typed decoder declined and encoding/json decoded: none
	// from this repository's shippers, so a count means foreign traffic.
	fallbacks atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Errors returns the number of undecodable lines, oversized lines and
// read errors seen so far. It is safe to call while connections are
// being served.
func (in *TCPInput) Errors() uint64 { return in.errors.Load() }

// NewTCPInput starts the plugin listening on addr (e.g.
// "127.0.0.1:0"). Close must be called to release the socket.
func NewTCPInput(pipeline *Pipeline, addr string) (*TCPInput, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("psarchiver: tcp input: %w", err)
	}
	return NewInputFromListener(pipeline, ln), nil
}

// NewInputFromListener runs the same input plugin over an
// already-bound listener — the fault-injection harness plugs an
// in-memory faultnet.Listener in here so outage tests exercise the
// real ingest code. Close closes the listener.
func NewInputFromListener(pipeline *Pipeline, ln net.Listener) *TCPInput {
	in := &TCPInput{pipeline: pipeline, ln: ln}
	in.wg.Add(1)
	go in.acceptLoop()
	return in
}

// Addr returns the bound address.
func (in *TCPInput) Addr() string { return in.ln.Addr().String() }

func (in *TCPInput) acceptLoop() {
	defer in.wg.Done()
	for {
		conn, err := in.ln.Accept()
		if err != nil {
			return // listener closed
		}
		in.wg.Add(1)
		go in.serve(conn)
	}
}

// maxLineBytes bounds one JSON line; anything larger is counted as one
// error and skipped, and the connection keeps serving. (The previous
// bufio.Scanner-based loop silently killed the whole connection on an
// oversized line or a read error, with no trace in any counter.)
const maxLineBytes = 1 << 20

// handleLine decodes one line into doc, the connection's document, and
// feeds it to the pipeline.
func (in *TCPInput) handleLine(line []byte, strs *controlplane.Interner, doc *Document) {
	if len(line) == 0 {
		return
	}
	in.lines.Add(1)
	fallback, err := doc.decode(line, strs)
	if err != nil {
		in.errors.Add(1)
		return
	}
	if fallback {
		in.fallbacks.Add(1)
	}
	in.pipeline.process(doc)
}

func (in *TCPInput) serve(conn net.Conn) {
	defer in.wg.Done()
	defer conn.Close()
	in.conns.Add(1)
	r := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	var strs controlplane.Interner // this connection's repeating strings
	doc := new(Document)           // every line of the connection decodes into it
	tooLong := false
	for {
		chunk, err := r.ReadSlice('\n')
		if len(chunk) > 0 && !tooLong {
			buf = append(buf, chunk...)
			if len(buf) > maxLineBytes {
				// One error for the whole oversized line, however many
				// reads it spans; the rest of it is discarded below.
				in.errors.Add(1)
				tooLong = true
				buf = buf[:0]
			}
		}
		switch err {
		case nil:
			// A complete line (buf ends in '\n') — or the tail of an
			// oversized one we are discarding.
			if !tooLong {
				// Trim the newline and any carriage returns and newlines
				// before it, as bytes.TrimRight(buf, "\r\n") does.
				line := buf
				for n := len(line); n > 0 && (line[n-1] == '\n' || line[n-1] == '\r'); n-- {
					line = line[:n-1]
				}
				in.handleLine(line, &strs, doc)
			}
			tooLong = false
			buf = buf[:0]
		case bufio.ErrBufferFull:
			// Mid-line: keep accumulating (or discarding).
		case io.EOF:
			// An unterminated tail is a torn record, whether or not what
			// arrived of it parses: the newline is what the shipper
			// counts as delivery, so it will send this record again.
			if !tooLong && len(buf) > 0 {
				in.lines.Add(1)
				in.errors.Add(1)
			}
			return
		default:
			// Read error (connection reset and friends): count it so
			// the loss is visible, then let the accept loop keep
			// serving other connections.
			in.errors.Add(1)
			return
		}
	}
}

// Close stops accepting and waits for in-flight connections to finish.
func (in *TCPInput) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	in.mu.Unlock()
	err := in.ln.Close()
	in.wg.Wait()
	return err
}
