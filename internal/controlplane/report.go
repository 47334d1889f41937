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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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
	open      string // and a string's opening quote
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
	// keyHeads holds, per field, the first 8 bytes of its key as a
	// little-endian word and the mask that keeps only a shorter key's
	// bytes: the decoder compares a line's next 8 bytes with each in one
	// step.
	keyHeads = func() []struct{ head, mask uint64 } {
		out := make([]struct{ head, mask uint64 }, len(schema))
		for i := range schema {
			var b [8]byte
			k := copy(b[:], schema[i].key)
			out[i].head = binary.LittleEndian.Uint64(b[:])
			out[i].mask = ^uint64(0) >> (64 - 8*k)
		}
		return out
	}()
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
		out[i] = Field{name: name, key: `"` + name + `":`, open: `"` + name + `":"`, kind: sf.Type.Kind(), off: sf.Offset, omitEmpty: opts == "omitempty", pos: i}
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
	for m := r.present(); m != 0; m &= m - 1 {
		f := &schema[bits.TrailingZeros64(m)]
		p := unsafe.Add(unsafe.Pointer(r), f.off)
		switch f.kind {
		case reflect.String:
			s := *(*string)(p)
			if !plain(s) {
				return r.appendSlow(dst[:start])
			}
			dst = append(dst, f.open...)
			dst = append(dst, s...)
			dst = append(dst, '"', ',')
			continue
		case reflect.Float64:
			v := *(*float64)(p)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return r.appendSlow(dst[:start])
			}
			dst = append(dst, f.key...)
			dst = appendFloat(dst, v)
		default:
			v := f.load(p)
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

// present returns the fields the encoding carries, bit i for schema row
// i: every field but an omitempty one at its zero, read without a branch
// per field. A field is at its zero when the word empties names for it
// is 0: a string's length, a float's bits without the sign (-0 is
// empty, as encoding/json has it), an integer's bits.
func (r *Report) present() uint64 {
	m := alwaysPresent
	for i := range empties {
		e := &empties[i]
		w := *(*uint64)(unsafe.Add(unsafe.Pointer(r), e.off)) & e.mask
		m |= (w | -w) >> 63 << (i & 63) // 1 when w != 0
	}
	return m
}

// emptyWord is where present reads a field's emptiness: the offset of an
// 8-byte word inside Report and the mask that keeps the field's own bits
// of it.
type emptyWord struct {
	off  uintptr
	mask uint64
}

// empties holds each schema row's emptyWord, and alwaysPresent a bit for
// each field without omitempty.
var empties, alwaysPresent = func() ([]emptyWord, uint64) {
	// A string's length word and an int fill an 8-byte word, and a
	// uint16's bits are the word's low ones, only on a little-endian
	// 64-bit platform.
	if unsafe.Sizeof(uintptr(0)) != 8 || binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		panic("controlplane: present reads Report's fields as 8-byte little-endian words")
	}
	out := make([]emptyWord, len(schema))
	var always uint64
	for i := range schema {
		f := &schema[i]
		out[i].off, out[i].mask = f.off, ^uint64(0)
		switch f.kind {
		case reflect.String:
			out[i].off += unsafe.Sizeof(uintptr(0)) // the length word
		case reflect.Float64:
			out[i].mask = ^uint64(1 << 63)
		case reflect.Uint16:
			out[i].mask = 1<<16 - 1
		}
		if out[i].off+8 > unsafe.Sizeof(Report{}) {
			panic("controlplane: Report." + f.name + "'s emptiness word runs past the struct")
		}
		if !f.omitEmpty {
			always |= 1 << i
		}
	}
	return out, always
}()

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
		if strClass[s[i]]&strPlain == 0 {
			return false
		}
	}
	return true
}

// strClass classifies the bytes of a JSON string's text: strPlain for
// one encoding/json writes as it stands (printable ASCII but `"`, `\`
// and the `<`, `>`, `&` its HTML-safe encoder escapes), strRaw for one
// the typed decoder takes as it stands (printable ASCII but `"` and `\`).
var strClass = func() (t [256]uint8) {
	for c := 0x20; c <= 0x7e; c++ {
		switch c {
		case '"', '\\':
		case '<', '>', '&':
			t[c] = strRaw
		default:
			t[c] = strPlain | strRaw
		}
	}
	return t
}()

const (
	strPlain = 1 << iota
	strRaw
)

// appendFloat is encoding/json's float64 rule: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21, a two-digit negative
// exponent's leading zero dropped (e-09 → e-9). Two kinds of value skip
// the shortest-digits search, because their shortest digits are known:
// an integer below 2⁵³ in magnitude is its own decimal, and a value
// that is exactly m/10⁶ rounded, for an integer m below 10¹⁵, is m's
// digits with trailing zeros dropped (a decimal of at most 15
// significant digits is the only one of that length that rounds to its
// float64).
func appendFloat(b []byte, v float64) []byte {
	a := math.Abs(v)
	if a >= 1 && a < 1<<53 {
		if i := int64(v); float64(i) == v {
			return strconv.AppendInt(b, i, 10)
		}
	}
	if a >= 1e-6 && a < 1e9 {
		if m := uint64(a*1e6 + 0.5); float64(m)/1e6 == a {
			if v < 0 {
				b = append(b, '-')
			}
			return appendMicros(b, m)
		}
	}
	format := byte('f')
	if a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendMicros writes m millionths in 'f' form, without trailing zeros.
func appendMicros(b []byte, m uint64) []byte {
	b = strconv.AppendUint(b, m/1e6, 10)
	frac := m % 1e6
	if frac == 0 {
		return b
	}
	var digits [6]byte
	n := len(digits)
	for i := n - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	for digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	b = append(b, digits[:n]...)
	return b
}

// Interner is the bounded table of strings one report stream repeats
// (kinds, units, flow IDs, addresses): a decoded document then shares
// each with every other document that carries it instead of owning a
// copy. It belongs to one goroutine — one per archiver connection.
//
// It also remembers, per flow_id, the text of the flow's identity run
// (the fields from flow_id to proto, which the encoder writes back to
// back) as its last lines carried it, and the values that text parsed
// to: a line whose run repeats one of them byte for byte takes the
// values instead of parsing the run again. A stream that interleaves
// flows repeats a run from that flow's previous line, not from the
// previous line; each flow keeps two runs, because its metric lines
// carry rev_id and its limitation lines do not.
type Interner struct {
	last  [64]string // per schema field, the previous line's value: most fields repeat it
	seen  map[string]string
	flows map[string]*flowRuns
}

// flowRuns is one flow_id's remembered identity runs, the most recent
// first.
type flowRuns [2]identityRun

// identityRun is the text of one identity run, from `"flow_id":` to the
// end of its last field's value, with the values it parses to and the
// schema position of its last field.
type identityRun struct {
	text string
	id   identity
	last int
}

// identity holds the fields of an identity run.
type identity struct {
	flowID, revID, srcIP, dstIP, proto string
	srcPort, dstPort                   uint16
}

func (r *Report) identity() identity {
	return identity{r.FlowID, r.RevID, r.SrcIP, r.DstIP, r.Proto, r.SrcPort, r.DstPort}
}

func (r *Report) setIdentity(id *identity) {
	r.FlowID, r.RevID, r.SrcIP, r.DstIP, r.Proto, r.SrcPort, r.DstPort =
		id.flowID, id.revID, id.srcIP, id.dstIP, id.proto, id.srcPort, id.dstPort
}

// The schema positions an identity run spans, checked at start-up to be
// exactly identity's fields.
var flowIDPos, protoPos = func() (int, int) {
	first, last := LookupField("flow_id").pos, LookupField("proto").pos
	var names []string
	for _, f := range schema[first : last+1] {
		names = append(names, f.name)
	}
	if strings.Join(names, ",") != "flow_id,rev_id,src_ip,dst_ip,src_port,dst_port,proto" {
		panic("controlplane: Report_v1's identity run is " + strings.Join(names, ","))
	}
	return first, last
}()

// internMax bounds the Interner's table of strings, and flowsMax its
// flows. A full table is emptied and refilled, so a long-lived
// connection whose flows churn keeps interning the current ones.
const (
	internMax = 16384
	flowsMax  = 8192
)

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

// runs returns the remembered runs of the flow_id whose key b starts
// with, nil when there is none.
func (in *Interner) runs(b []byte) *flowRuns {
	end := bytes.IndexByte(b[min(flowIDKey, len(b)):], '"')
	if end < 0 {
		return nil
	}
	return in.flows[string(b[flowIDKey:flowIDKey+end])]
}

// flowIDKey is the length of `"flow_id":"`, where a run's flow_id starts.
const flowIDKey = len(`"flow_id":"`)

// remember makes text, whose identity run parsed to r's fields up to
// schema position last, its flow's most recent run. A new flow's key in
// flows is the flow_id inside the text, so that the probe and the
// comparison that follows it read the same memory.
//
// p4:hotpath-exempt: a flow's first line, or the first after its identity changed or its other run was used
func (in *Interner) remember(fr *flowRuns, text []byte, r *Report, last int) {
	t := string(text)
	if fr == nil {
		if in.flows == nil || len(in.flows) >= flowsMax {
			in.flows = make(map[string]*flowRuns)
		}
		fr = new(flowRuns)
		in.flows[t[flowIDKey:flowIDKey+len(r.FlowID)]] = fr
	}
	fr[1], fr[0] = fr[0], identityRun{t, r.identity(), last}
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
	// The identity run being parsed, to be remembered: its flow's runs,
	// where its text starts (< 0 when there is none) and its last field.
	var fr *flowRuns
	runStart, runLast := -1, 0
	for i, next := 1, 0; i < n; next++ {
		// The key: the first field from the cursor on whose `"name":` is
		// here. A key outside the schema, out of the encoder's order or
		// repeated runs the cursor off the table.
		rest := line[i:n]
		if len(rest) < 8 { // shorter than any key and its value
			return false
		}
		head := binary.LittleEndian.Uint64(rest)
		for ; next < len(schema); next++ {
			k := schema[next].key
			if head&keyHeads[next].mask == keyHeads[next].head && len(rest) > len(k) && string(rest[:len(k)]) == k {
				break
			}
		}
		if next == len(schema) {
			return false
		}
		if runStart >= 0 && next > protoPos {
			in.remember(fr, line[runStart:i-1], r, runLast)
			runStart = -1
		}
		var w int
		if next == flowIDPos && in != nil {
			// A remembered run that this line repeats up to a field's end.
			if fr = in.runs(rest); fr != nil {
				for k := range fr {
					run := &fr[k]
					if w = len(run.text); len(rest) >= w && string(rest[:w]) == run.text && (w == len(rest) || rest[w] == ',') {
						r.setIdentity(&run.id)
						next = run.last
						break
					}
					w = 0
				}
			}
			if w == 0 {
				runStart = i
			}
		}
		if w == 0 {
			if w = r.parseField(next, rest, in); w == 0 {
				return false
			}
			runLast = next
		}
		i += w
		sawTime = sawTime || next == timeField.pos
		if i < n {
			if line[i] != ',' || i+1 == n {
				return false
			}
			i++
		}
	}
	if runStart >= 0 {
		in.remember(fr, line[runStart:n], r, runLast)
	}
	return sawTime
}

// parseField stores the field at schema position pos from rest, which
// starts with its key, and returns the width of its key and value: 0 if
// the value is not one AppendJSONLine writes for the field.
func (r *Report) parseField(pos int, rest []byte, in *Interner) int {
	f := &schema[pos]
	i := len(f.key)
	p := unsafe.Add(unsafe.Pointer(r), f.off)
	switch f.kind {
	case reflect.String:
		if rest[i] != '"' {
			return 0
		}
		start := i + 1
		for i = start; i < len(rest) && strClass[rest[i]]&strRaw != 0; i++ {
		}
		if i == len(rest) || rest[i] != '"' || (i == start && f.omitEmpty) {
			return 0
		}
		*(*string)(p) = in.str(pos, rest[start:i])
		return i + 1
	}
	var w int
	if f.kind == reflect.Float64 {
		w = f.parseFloat(p, rest[i:])
	} else {
		w = f.parseInt(p, rest[i:])
	}
	if w == 0 {
		return 0
	}
	return i + w
}

// parseInt stores the JSON integer b starts with in an integer field and
// returns its width: 0 if there is none, if it has a fraction or an
// exponent (5201.0 is not a port), if the field cannot hold it (70000
// in a port, -1 in an unsigned field), or if it is the zero an
// omitempty field is never written with. It takes and declines what
// strconv.ParseInt or ParseUint at the field's width would on the
// number's JSON-grammar text.
func (f *Field) parseInt(p unsafe.Pointer, b []byte) int {
	i, neg := 0, b[0] == '-'
	limit := uint64(1)<<f.bits - 1 // the largest magnitude the field holds
	if f.signed() {
		limit >>= 1
		if neg {
			limit++
		}
	} else if neg {
		return 0
	}
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i-start < 19 { // 19 digits never overflow a uint64
			v = v*10 + uint64(b[i]-'0')
			continue
		}
		hi, lo := bits.Mul64(v, 10)
		lo, carry := bits.Add64(lo, uint64(b[i]-'0'), 0)
		if hi|carry != 0 {
			return 0
		}
		v = lo
	}
	if i == start || (b[start] == '0' && i > start+1) || v > limit || (v == 0 && f.omitEmpty) {
		return 0
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0
	}
	if neg {
		v = -v
	}
	f.store(p, v)
	return i
}

// parseFloat stores the JSON number b starts with in a float field and
// returns its width: 0 if there is none, if it is out of float64's range
// or if it is the zero an omitempty field is never written with. A
// number of at most 19 digits whose digits make an integer m below 2⁵³
// and whose decimal exponent e is within ±22 is m·10ᵉ exactly rounded,
// which one multiplication or division of two exact float64s gives;
// any other goes to strconv.ParseFloat. Either way the value is
// ParseFloat's.
func (f *Field) parseFloat(p unsafe.Pointer, b []byte) int {
	i, neg := 0, b[0] == '-'
	if neg {
		i++
	}
	sign := i
	var m uint64
	nd, exp := 0, 0 // digits read into m; the decimal exponent they need
	digits := func(frac bool) bool {
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
			nd++
			if frac {
				exp--
			}
		}
		return i > start
	}
	if start := i; !digits(false) || (b[start] == '0' && i > start+1) {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits(true) {
			return 0
		}
	}
	exact := nd <= 19 && m < 1<<53
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		e, start := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	var v float64
	switch {
	case exact && exp >= 0 && exp <= 22:
		v = float64(m) * float64pow10[exp]
	case exact && exp < 0 && exp >= -22:
		v = float64(m) / float64pow10[-exp]
	default:
		var err error
		if v, err = strconv.ParseFloat(unsafe.String(&b[sign], i-sign), 64); err != nil {
			return 0
		}
	}
	if neg {
		v = -v
	}
	if v == 0 && f.omitEmpty {
		return 0
	}
	*(*float64)(p) = v
	return i
}

// float64pow10 holds the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
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
