package psarchiver

import "repro/internal/obs"

// RegisterObs exposes the input plugin's ingest and error counts, which
// the plugin keeps whether or not anyone scrapes them. Safe to call
// while connections are being served.
func (in *TCPInput) RegisterObs(r *obs.Registry) {
	r.Collect(func(w obs.MetricWriter) {
		w.Counter("p4_archiver_input_connections_total", "Connections accepted by the TCP input.", in.conns.Load())
		w.Counter("p4_archiver_input_lines_total", "NDJSON lines ingested (decodable or not).", in.lines.Load())
		w.Counter("p4_archiver_input_errors_total", "Undecodable lines, oversized lines and read errors.", in.errors.Load())
		w.Counter("p4_archiver_input_fallback_lines_total", "Lines the typed Report_v1 decoder declined and encoding/json decoded.", in.fallbacks.Load())
	})
}

// RegisterObs exposes the store's documents and the bytes of their
// columns, string tables and identity tables, read under the read lock
// at each scrape.
func (s *Store) RegisterObs(r *obs.Registry) {
	r.Collect(func(w obs.MetricWriter) {
		var docs, bytes int
		s.mu.RLock()
		for _, ix := range s.indices {
			docs, bytes = docs+ix.n, bytes+ix.bytes
		}
		s.mu.RUnlock()
		w.Gauge("p4_archiver_store_documents", "Documents in the store, across its indices.", uint64(docs))
		w.Gauge("p4_archiver_store_bytes", "Bytes of the store's columns, string tables and identity tables (Extra maps not counted).", uint64(bytes))
	})
}

// RegisterObs exposes the pipeline counters as one gauge group read
// through Stats, whose load order keeps received >= shipped + dropped in
// every scrape.
func (p *Pipeline) RegisterObs(r *obs.Registry) {
	r.Collect(func(w obs.MetricWriter) {
		st := p.Stats()
		w.Gauge("p4_archiver_pipeline_received", "Documents entering the Logstash-model pipeline.", st.Received)
		w.Gauge("p4_archiver_pipeline_dropped", "Documents rejected by a filter or undecodable.", st.Dropped)
		w.Gauge("p4_archiver_pipeline_shipped", "Documents delivered to the output plugins.", st.Shipped)
	})
}
