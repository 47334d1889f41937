package psarchiver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/controlplane"
)

// Filter transforms a document in the Logstash pipeline; returning
// false drops the event.
type Filter func(Document) bool

// Output ships a processed document, like Logstash's output plugins.
type Output func(index string, doc Document)

// Pipeline is the Logstash stand-in of Figure 7: events enter from an
// input plugin, pass the filter chain, and exit through the output.
// IndexFor routes each document to an OpenSearch index by its report
// kind, the way perfSONAR's Logstash configuration routes test results.
type Pipeline struct {
	mu      sync.Mutex
	filters []Filter
	outputs []Output

	// IndexPrefix namespaces the destination indices; documents land in
	// "<prefix>-<kind>". Default "p4-psonar".
	IndexPrefix string

	// Stats, guarded by mu: the TCP input writes them from
	// per-connection goroutines while callers poll. Read via Stats().
	received uint64
	dropped  uint64
	shipped  uint64
}

// PipelineStats is a consistent snapshot of the pipeline counters.
type PipelineStats struct {
	Received uint64
	Dropped  uint64
	Shipped  uint64
}

// Stats returns the current counters under the pipeline lock.
func (p *Pipeline) Stats() PipelineStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineStats{Received: p.received, Dropped: p.dropped, Shipped: p.shipped}
}

// NewPipeline builds a pipeline with the standard metadata filter
// installed (the "adds the metadata required by the OpenSearch
// database" step of Figure 7).
func NewPipeline() *Pipeline {
	p := &Pipeline{IndexPrefix: "p4-psonar"}
	p.AddFilter(AddMetadata)
	return p
}

// AddFilter appends a filter to the chain.
func (p *Pipeline) AddFilter(f Filter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.filters = append(p.filters, f)
}

// AddOutput appends an output plugin.
func (p *Pipeline) AddOutput(o Output) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outputs = append(p.outputs, o)
}

// OpenSearchOutput wires the pipeline's output plugin to a Store.
func (p *Pipeline) OpenSearchOutput(store *Store) {
	p.AddOutput(func(index string, doc Document) {
		store.Index(index, doc)
	})
}

// AddMetadata is the default filter: it stamps the document with the
// fields the OpenSearch output needs, producing Report_v2.
func AddMetadata(doc Document) bool {
	if _, ok := doc["time_ns"]; ok {
		doc["@timestamp_ns"] = doc["time_ns"]
	}
	doc["@version"] = "1"
	doc["host"] = "p4-switch-cp"
	doc["pipeline"] = "p4-psonar"
	return true
}

// Process pushes one document through filters and outputs.
func (p *Pipeline) Process(doc Document) {
	p.mu.Lock()
	filters := p.filters
	outputs := p.outputs
	prefix := p.IndexPrefix
	p.received++
	p.mu.Unlock()

	for _, f := range filters {
		if !f(doc) {
			p.mu.Lock()
			p.dropped++
			p.mu.Unlock()
			return
		}
	}
	kind := doc.Str("kind")
	if kind == "" {
		kind = "unknown"
	}
	index := fmt.Sprintf("%s-%s", prefix, kind)
	for _, o := range outputs {
		o(index, doc)
	}
	p.mu.Lock()
	p.shipped++
	p.mu.Unlock()
}

// Emit implements controlplane.Sink, the in-simulation input plugin:
// the control plane hands Report_v1 records straight to the pipeline.
func (p *Pipeline) Emit(r controlplane.Report) {
	doc, err := reportToDoc(r)
	if err != nil {
		p.mu.Lock()
		p.dropped++
		p.mu.Unlock()
		return
	}
	p.Process(doc)
}

func reportToDoc(r controlplane.Report) (Document, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc, nil
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

func (in *TCPInput) handleLine(line []byte) {
	if len(line) == 0 {
		return
	}
	in.lines.Add(1)
	var doc Document
	if err := json.Unmarshal(line, &doc); err != nil {
		in.errors.Add(1)
		return
	}
	in.pipeline.Process(doc)
}

func (in *TCPInput) serve(conn net.Conn) {
	defer in.wg.Done()
	defer conn.Close()
	in.conns.Add(1)
	r := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
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
				// Trim like bufio.ScanLines did: the newline plus an
				// optional carriage return.
				in.handleLine(bytes.TrimRight(buf, "\r\n"))
			}
			tooLong = false
			buf = buf[:0]
		case bufio.ErrBufferFull:
			// Mid-line: keep accumulating (or discarding).
		case io.EOF:
			// A trailing unterminated line still counts (mid-line
			// resets surface here as an undecodable fragment).
			if !tooLong {
				in.handleLine(buf)
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
