// Package controlplane models the programmable switch's control plane
// (§3.2, Figure 5b): it extracts the data-plane registers at the
// configured intervals (t_N, t_P, t_R, t_Q), applies the alert
// thresholds (a_N, a_P, a_R, a_Q) with automatic reporting-rate
// escalation, derives the metrics the paper's §5.3 computes (throughput,
// loss percentage, queue occupancy, link utilisation, Jain's fairness),
// builds per-flow and terminated-flow reports, and ships everything as
// structured Report_v1 records toward the perfSONAR archiver.
package controlplane

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/simtime"
)

// Metric names a monitored quantity. The four data-plane metrics carry
// the paper's t_N/t_P/t_R/t_Q extraction intervals.
type Metric string

// The four monitored metrics of Figure 5(a).
const (
	MetricThroughput     Metric = "throughput"      // t_N: number of bytes
	MetricPacketLoss     Metric = "packet_loss"     // t_P: packet losses
	MetricRTT            Metric = "rtt"             // t_R: round-trip time
	MetricQueueOccupancy Metric = "queue_occupancy" // t_Q: queue occupancy
)

// AllMetrics lists the four configurable metrics.
func AllMetrics() []Metric {
	return []Metric{MetricThroughput, MetricPacketLoss, MetricRTT, MetricQueueOccupancy}
}

// NumMetrics is the number of configurable metrics — the paper's
// program derives exactly four (Figure 5a), so the runtime-config
// generation can hold them in a fixed-size array with pure value
// semantics (see RuntimeConfig).
const NumMetrics = 4

// MetricIndex maps a metric to its dense index in [0, NumMetrics),
// the slot its schedule occupies inside a RuntimeConfig generation.
// Unknown metrics map to -1.
func MetricIndex(m Metric) int {
	switch m {
	case MetricThroughput:
		return 0
	case MetricPacketLoss:
		return 1
	case MetricRTT:
		return 2
	case MetricQueueOccupancy:
		return 3
	}
	return -1
}

// ValidMetric reports whether s names a configurable metric.
func ValidMetric(s string) bool {
	switch Metric(s) {
	case MetricThroughput, MetricPacketLoss, MetricRTT, MetricQueueOccupancy:
		return true
	}
	return false
}

// Report kinds.
const (
	KindMetric      = "metric"       // one per-flow measurement sample
	KindAggregate   = "aggregate"    // link utilisation, fairness, flow counts (§5.3)
	KindFlowSummary = "flow_summary" // terminated long-flow report (§3.3.2)
	KindMicroburst  = "microburst"   // nanosecond-granularity burst event (§3.3.3)
	KindAlert       = "alert"        // threshold exceeded (§3.2)
	KindLimitation  = "limitation"   // network vs sender/receiver verdict (§4.4)
)

// Limitation verdicts for KindLimitation reports.
const (
	LimitedByNetwork  = "network"
	LimitedByEndpoint = "sender/receiver"
	LimitedUnknown    = "undetermined"
)

// Report is the structured record the control plane emits — the
// "Report_v1" of Figure 7. Logstash later adds the OpenSearch metadata
// to produce Report_v2. One struct covers all report kinds; unused
// fields stay zero and are omitted from the JSON encoding.
type Report struct {
	Kind   string `json:"kind"`
	TimeNs int64  `json:"time_ns"`

	// Member identity (fleet deployments, DESIGN.md §5.9): which site
	// and which switch produced this report. Stamped by IdentitySink on
	// the way out of the control plane; empty in single-switch runs, so
	// single-switch report streams are byte-identical to pre-federation
	// ones. The shared archiver groups documents by these fields for
	// cross-site aggregation (psarchiver.CrossSite).
	SiteID   string `json:"site_id,omitempty"`
	SwitchID string `json:"switch_id,omitempty"`

	// Flow identity (metric, flow_summary, limitation kinds).
	FlowID  string `json:"flow_id,omitempty"` // hex hash of the 5-tuple
	RevID   string `json:"rev_id,omitempty"`  // hex reversed-hash
	SrcIP   string `json:"src_ip,omitempty"`
	DstIP   string `json:"dst_ip,omitempty"`
	SrcPort uint16 `json:"src_port,omitempty"`
	DstPort uint16 `json:"dst_port,omitempty"`
	Proto   string `json:"proto,omitempty"`

	// Measurement sample (metric, alert kinds).
	Metric Metric  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Unit   string  `json:"unit,omitempty"`

	// RTT distribution quantiles (metric kind, rtt only), extracted
	// from the data plane's in-register log₂ histogram. Upper bounds
	// with one-octave resolution (DESIGN.md §5.8); zero when the flow
	// has no histogram samples yet.
	RTTP50Ms float64 `json:"rtt_p50_ms,omitempty"`
	RTTP95Ms float64 `json:"rtt_p95_ms,omitempty"`
	RTTP99Ms float64 `json:"rtt_p99_ms,omitempty"`

	// Alert details.
	Threshold     float64 `json:"threshold,omitempty"`
	EscalatedRate float64 `json:"escalated_rate,omitempty"`

	// Terminated-flow summary (§3.3.2): start/end with nanosecond
	// granularity, totals, average throughput, retransmissions.
	StartNs          int64   `json:"start_ns,omitempty"`
	EndNs            int64   `json:"end_ns,omitempty"`
	Packets          uint64  `json:"packets,omitempty"`
	Bytes            uint64  `json:"bytes,omitempty"`
	Retransmissions  uint64  `json:"retransmissions,omitempty"`
	RetransmitPct    float64 `json:"retransmit_pct,omitempty"`
	AvgThroughputBps float64 `json:"avg_throughput_bps,omitempty"`

	// Microburst event (§3.3.3).
	DurationNs   int64 `json:"duration_ns,omitempty"`
	PeakDelayNs  int64 `json:"peak_delay_ns,omitempty"`
	BurstPackets int   `json:"burst_packets,omitempty"`

	// Aggregate traffic statistics (§5.3).
	Utilization  float64 `json:"utilization,omitempty"`
	Fairness     float64 `json:"fairness,omitempty"`
	ActiveFlows  int     `json:"active_flows,omitempty"`
	TotalBytes   uint64  `json:"total_bytes,omitempty"`
	TotalPackets uint64  `json:"total_packets,omitempty"`

	// Limitation verdict (§4.4).
	Limitation string `json:"limitation,omitempty"`
}

// Time returns the report timestamp as simulation time.
func (r Report) Time() simtime.Time { return simtime.Time(r.TimeNs) }

// MarshalJSONLine renders the report as one JSON line, the format the
// Logstash TCP input plugin ingests.
func (r Report) MarshalJSONLine() ([]byte, error) {
	// Encoded on the stack, then copied out at its exact size: one
	// allocation for any line up to 512 B (a metric line is 220–330 B).
	var scratch [512]byte
	line, err := r.AppendJSONLine(scratch[:0])
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), line...), nil
}

// Field is one row of Report_v1's schema: the JSON name and omitempty
// flag from the struct tag, the Go kind, and the offset that reaches
// the value without reflection. The table is derived once, at start-up,
// from Report's own tags, so the struct above is the only place the
// schema is spelled; AppendJSONLine, ParseJSONLine and the accessors
// psarchiver.Document reads through all walk this table.
type Field struct {
	name      string
	key       string // `"name":`, as AppendJSONLine writes it
	kind      reflect.Kind
	bits      int // of a numeric kind
	off       uintptr
	omitEmpty bool
	pos       int // in the schema, which is Report's field order
}

var (
	schema      = buildSchema()
	fieldByName = func() map[string]*Field {
		m := make(map[string]*Field, len(schema))
		for i := range schema {
			m[schema[i].name] = &schema[i]
		}
		return m
	}()
	timeField = fieldByName["time_ns"]
)

func buildSchema() []Field {
	t := reflect.TypeOf(Report{})
	out := make([]Field, t.NumField())
	if len(out) > len(Interner{}.last) {
		panic("controlplane: Interner.last is shorter than Report_v1's schema")
	}
	for i := range out {
		sf := t.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		switch sf.Type.Kind() {
		case reflect.String, reflect.Int64, reflect.Int, reflect.Uint64, reflect.Uint16, reflect.Float64:
		default:
			panic("controlplane: the Report_v1 codec has no case for Report." + sf.Name + " (" + sf.Type.String() + ")")
		}
		out[i] = Field{name: name, key: `"` + name + `":`, kind: sf.Type.Kind(), off: sf.Offset, omitEmpty: opts == "omitempty", pos: i}
		if sf.Type.Kind() != reflect.String {
			out[i].bits = sf.Type.Bits()
		}
	}
	return out
}

// LookupField returns the schema row for a JSON name, nil when Report_v1
// has no such field.
func LookupField(name string) *Field { return fieldByName[name] }

// Fields returns the schema's rows, the string fields apart from the
// numeric ones, each in Report's field order.
func Fields() (str, num []*Field) {
	for i := range schema {
		if schema[i].kind == reflect.String {
			str = append(str, &schema[i])
		} else {
			num = append(num, &schema[i])
		}
	}
	return str, num
}

// Pos is the field's position in Fields.
func (f *Field) Pos() int { return f.pos }

func (f *Field) signed() bool { return f.kind == reflect.Int64 || f.kind == reflect.Int }

// load reads an integer field, a signed one as its two's complement.
func (f *Field) load(p unsafe.Pointer) uint64 {
	switch f.kind {
	case reflect.Int64:
		return uint64(*(*int64)(p))
	case reflect.Int:
		return uint64(*(*int)(p))
	case reflect.Uint16:
		return uint64(*(*uint16)(p))
	}
	return *(*uint64)(p)
}

// store writes an integer field; v is in the field's range.
func (f *Field) store(p unsafe.Pointer, v uint64) {
	switch f.kind {
	case reflect.Int64:
		*(*int64)(p) = int64(v)
	case reflect.Int:
		*(*int)(p) = int(v)
	case reflect.Uint16:
		*(*uint16)(p) = uint16(v)
	default:
		*(*uint64)(p) = v
	}
}

// Str reads a string field; "" for a numeric one. An omitempty field at
// "" is a field the wire never carried.
func (f *Field) Str(r *Report) string {
	if f.kind != reflect.String {
		return ""
	}
	return *(*string)(unsafe.Add(unsafe.Pointer(r), f.off))
}

// SetStr writes a string field; a numeric field is left alone.
func (f *Field) SetStr(r *Report, s string) {
	if f.kind == reflect.String {
		*(*string)(unsafe.Add(unsafe.Pointer(r), f.off)) = s
	}
}

// Word reads a numeric field as one 64-bit word: a float's IEEE bits (so
// -0.0 is not 0), an integer's two's complement; 0 for a string field.
// The word is 0 exactly when the field holds +0, so an omitempty field
// the wire never carried reads 0.
func (f *Field) Word(r *Report) uint64 {
	p := unsafe.Add(unsafe.Pointer(r), f.off)
	switch f.kind {
	case reflect.String:
		return 0
	case reflect.Float64:
		return math.Float64bits(*(*float64)(p))
	}
	return f.load(p)
}

// SetWord writes back into a numeric field a word Word read from it; a
// string field is left alone.
func (f *Field) SetWord(r *Report, w uint64) {
	p := unsafe.Add(unsafe.Pointer(r), f.off)
	switch f.kind {
	case reflect.String:
	case reflect.Float64:
		*(*float64)(p) = math.Float64frombits(w)
	default:
		f.store(p, w)
	}
}

// WordFloat is Float of a report whose field holds the word w.
func (f *Field) WordFloat(w uint64) float64 {
	switch {
	case f.kind == reflect.String:
		return 0
	case f.kind == reflect.Float64:
		return math.Float64frombits(w)
	case f.signed():
		return float64(int64(w))
	}
	return float64(w)
}

// Float reads a numeric field as the float64 a JSON decoder would have
// produced for it; 0 for a string field, and for an omitempty field the
// wire never carried.
func (f *Field) Float(r *Report) float64 { return f.WordFloat(f.Word(r)) }

// AppendJSONLine appends the report as one NDJSON line, byte for byte
// what json.Marshal(r) plus '\n' produces (field order, omitempty, the
// 'f'/'e' float rule, HTML-safe strings), without reflection or
// allocation when dst has room. A string that needs an escape or a
// non-finite float — neither of which the control plane emits — is
// handed to encoding/json itself.
//
// p4:hotpath
func (r *Report) AppendJSONLine(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '{')
	for i := range schema {
		f := &schema[i]
		p := unsafe.Add(unsafe.Pointer(r), f.off)
		switch f.kind {
		case reflect.String:
			s := *(*string)(p)
			if s == "" && f.omitEmpty {
				continue
			}
			if !plain(s) {
				return r.appendSlow(dst[:start])
			}
			dst = append(dst, f.key...)
			dst = append(dst, '"')
			dst = append(dst, s...)
			dst = append(dst, '"')
		case reflect.Float64:
			v := *(*float64)(p)
			if v == 0 && f.omitEmpty {
				continue
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return r.appendSlow(dst[:start])
			}
			dst = append(dst, f.key...)
			dst = appendFloat(dst, v)
		default:
			v := f.load(p)
			if v == 0 && f.omitEmpty {
				continue
			}
			dst = append(dst, f.key...)
			if f.signed() {
				dst = strconv.AppendInt(dst, int64(v), 10)
			} else {
				dst = strconv.AppendUint(dst, v, 10)
			}
		}
		dst = append(dst, ',')
	}
	dst[len(dst)-1] = '}' // kind and time_ns are never omitted
	dst = append(dst, '\n')
	return dst, nil
}

// appendSlow is AppendJSONLine through encoding/json.
//
// p4:hotpath-exempt: only a string needing an escape or a non-finite float gets here, and the control plane emits neither
func (r *Report) appendSlow(dst []byte) ([]byte, error) {
	b, err := json.Marshal(*r) // by value: r must not escape on the fast path's account
	if err != nil {
		return nil, fmt.Errorf("controlplane: encoding report: %w", err)
	}
	return append(append(dst, b...), '\n'), nil
}

// plain reports whether encoding/json writes s between quotes as it
// stands: printable ASCII with none of the characters its HTML-safe
// encoder escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendFloat is encoding/json's float64 rule: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21, a two-digit negative
// exponent's leading zero dropped (e-09 → e-9).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Interner is the bounded table of strings one report stream repeats
// (kinds, units, flow IDs, addresses): a decoded document then shares
// each with every other document that carries it instead of owning a
// copy. It belongs to one goroutine — one per archiver connection.
type Interner struct {
	last [64]string // per schema field, the previous line's value: most fields repeat it
	seen map[string]string
}

// internMax bounds an Interner. A full table is emptied and refilled, so
// a long-lived connection whose flows churn keeps interning the current
// ones.
const internMax = 16384

// str returns b, the value of schema field i, as a string.
func (in *Interner) str(i int, b []byte) string {
	if in == nil {
		return string(b)
	}
	if in.last[i] != string(b) {
		s, ok := in.seen[string(b)]
		if !ok {
			s = in.add(string(b))
		}
		in.last[i] = s
	}
	return in.last[i]
}

// add is the miss path of str.
//
// p4:hotpath-exempt: a string's first appearance on a connection; the steady state is the two lookups in str
func (in *Interner) add(s string) string {
	if in.seen == nil || len(in.seen) >= internMax {
		in.seen = make(map[string]string)
	}
	in.seen[s] = s
	return s
}

// ParseJSONLine fills r from a line of exactly the shape AppendJSONLine
// writes — one flat object, schema keys in schema order with time_ns
// among them, strings of printable ASCII without escapes, JSON-grammar
// numbers inside each field's range, no omitempty field spelled at zero
// — taking its strings from in (nil: fresh copies). It reports false,
// with r in no particular state, for every other line, valid JSON or
// not; the caller then asks encoding/json, so which lines are accepted
// and what they mean stays that package's decision.
//
// p4:hotpath
func (r *Report) ParseJSONLine(line []byte, in *Interner) bool {
	n := len(line) - 1
	if n < 1 || line[0] != '{' || line[n] != '}' {
		return false
	}
	*r = Report{}
	sawTime := false
	for i, next := 1, 0; i < n; next++ {
		// The key: the first field from the cursor on whose `"name":` is
		// here. A key outside the schema, out of the encoder's order or
		// repeated runs the cursor off the table.
		rest := line[i:n]
		for ; next < len(schema); next++ {
			k := schema[next].key
			if len(rest) > len(k) && rest[len(k)-2] == '"' && rest[1] == k[1] && string(rest[:len(k)]) == k {
				break
			}
		}
		if next == len(schema) {
			return false
		}
		f := &schema[next]
		i += len(f.key)
		p := unsafe.Add(unsafe.Pointer(r), f.off)
		if f.kind == reflect.String {
			start := i + 1
			if line[i] != '"' {
				return false
			}
			for i = start; i < n && line[i] != '"'; i++ {
				if c := line[i]; c < 0x20 || c > 0x7e || c == '\\' {
					return false
				}
			}
			if i == n || (i == start && f.omitEmpty) {
				return false
			}
			*(*string)(p) = in.str(next, line[start:i])
			i++
		} else {
			w := f.parseNumber(p, line[i:n])
			if w == 0 {
				return false
			}
			i += w
		}
		sawTime = sawTime || f == timeField
		if i < n {
			if line[i] != ',' || i+1 == n {
				return false
			}
			i++
		}
	}
	return sawTime
}

// parseNumber stores the JSON number b starts with in a numeric field
// and returns its width: 0 if there is none, if the field cannot hold it
// exactly (5201.0 or 70000 in a port) or if it is the zero an omitempty
// field is never written with.
func (f *Field) parseNumber(p unsafe.Pointer, b []byte) int {
	w := jsonNumber(b)
	if w == 0 {
		return 0
	}
	text := unsafe.String(&b[0], w)
	var zero bool
	var err error
	switch {
	case f.kind == reflect.Float64:
		var v float64
		v, err = strconv.ParseFloat(text, 64)
		*(*float64)(p), zero = v, v == 0
	case f.signed():
		var v int64
		v, err = strconv.ParseInt(text, 10, f.bits)
		f.store(p, uint64(v))
		zero = v == 0
	default:
		var v uint64
		v, err = strconv.ParseUint(text, 10, f.bits)
		f.store(p, v)
		zero = v == 0
	}
	if err != nil || (zero && f.omitEmpty) {
		return 0
	}
	return w
}

// jsonNumber returns the width of the JSON-grammar number b starts with,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv's parsers accept; 0 if there is none.
func jsonNumber(b []byte) int {
	i := 0
	digits := func() bool {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if b[0] == '-' {
		i++
	}
	if start := i; !digits() || (b[start] == '0' && i > start+1) {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0
		}
	}
	return i
}

// Sink receives the control plane's reports. The perfSONAR archiver's
// Logstash pipeline is the production sink; tests use MemorySink.
type Sink interface {
	Emit(r Report)
}

// MemorySink retains every report in order, with per-kind indexing for
// test assertions and the experiment harness.
type MemorySink struct {
	Reports []Report
}

// Emit implements Sink.
func (m *MemorySink) Emit(r Report) { m.Reports = append(m.Reports, r) }

// ByKind returns the reports of one kind, in emission order.
func (m *MemorySink) ByKind(kind string) []Report {
	var out []Report
	for _, r := range m.Reports {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// MetricReports returns KindMetric reports for one metric, optionally
// filtered to a single flow ID (empty string = all flows).
func (m *MemorySink) MetricReports(metric Metric, flowID string) []Report {
	var out []Report
	for _, r := range m.Reports {
		if r.Kind != KindMetric || r.Metric != metric {
			continue
		}
		if flowID != "" && r.FlowID != flowID {
			continue
		}
		out = append(out, r)
	}
	return out
}
