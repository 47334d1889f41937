package controlplane

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// refParseJSONLine is the typed decoder as it read before its fast
// paths: every key matched by comparison, every string checked byte by
// byte, every number through strconv, no interner and no remembered
// identity runs. The tests hold ParseJSONLine to it: it must take and
// decline the same lines and produce the same values.
func refParseJSONLine(r *Report, line []byte) bool {
	n := len(line) - 1
	if n < 1 || line[0] != '{' || line[n] != '}' {
		return false
	}
	*r = Report{}
	sawTime := false
	for i, next := 1, 0; i < n; next++ {
		rest := line[i:n]
		for ; next < len(schema); next++ {
			k := schema[next].key
			if len(rest) > len(k) && string(rest[:len(k)]) == k {
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
			*(*string)(p) = string(line[start:i])
			i++
		} else {
			w := refParseNumber(f, p, line[i:n])
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

// refParseNumber is the number rule through strconv: the JSON-grammar
// number b starts with, parsed at the field's width, 0 if there is
// none, if the field cannot hold it or if it is an omitempty field's
// zero.
func refParseNumber(f *Field, p unsafe.Pointer, b []byte) int {
	w := refJSONNumber(b)
	if w == 0 {
		return 0
	}
	text := string(b[:w])
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

// refJSONNumber returns the width of the JSON-grammar number b starts
// with, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; 0 if there is
// none.
func refJSONNumber(b []byte) int {
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

// sameReport compares two reports field by field, numbers by their bits
// (so -0 and +0 differ).
func sameReport(a, b *Report) bool {
	for i := range schema {
		if f := &schema[i]; f.Str(a) != f.Str(b) || f.Word(a) != f.Word(b) {
			return false
		}
	}
	return true
}

// checkAgainstReference decodes line through in, and with no interner,
// and fails unless both take it exactly when refParseJSONLine does and
// then produce its values.
func checkAgainstReference(t *testing.T, in *Interner, line []byte) (accepted bool) {
	t.Helper()
	var want Report
	wantOK := refParseJSONLine(&want, line)
	for _, strs := range []*Interner{in, nil} {
		var got Report
		if ok := got.ParseJSONLine(line, strs); ok != wantOK {
			t.Fatalf("ParseJSONLine(%s) = %v, the reference decoder says %v", line, ok, wantOK)
		} else if ok && !sameReport(&got, &want) {
			t.Fatalf("ParseJSONLine(%s):\n got %+v\nwant %+v", line, got, want)
		}
	}
	return wantOK
}

// identityRunSeeds are pairs of lines that share a flow_id but not, or
// not quite, its identity run: the second line of each must decode as
// if the first had not been seen.
var identityRunSeeds = [][2]string{
	// A number at the run's end that the next line extends.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r","src_ip":"10.0.0.1","dst_ip":"10.1.0.1","src_port":4,"dst_port":520,"metric":"rtt","value":1}`,
		`{"kind":"metric","time_ns":2,"flow_id":"f","rev_id":"r","src_ip":"10.0.0.1","dst_ip":"10.1.0.1","src_port":4,"dst_port":5201,"metric":"rtt","value":1}`},
	// A run without proto, then the same run with it.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","src_port":4,"dst_port":5201,"metric":"rtt","value":1}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","src_port":4,"dst_port":5201,"proto":"tcp","metric":"rtt","value":1}`},
	// The limitation shape and the metric shape of one flow.
	{`{"kind":"limitation","time_ns":1,"flow_id":"f","src_ip":"10.0.0.1","dst_ip":"10.1.0.1","src_port":4,"dst_port":5201,"proto":"tcp","limitation":"network"}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r","src_ip":"10.0.0.1","dst_ip":"10.1.0.1","src_port":4,"dst_port":5201,"proto":"tcp","metric":"rtt","value":2.5}`},
	// The run, then the run followed by something other than a comma.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","proto":"tcp","value":1}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","proto":"tcp"x,"value":1}`},
	// The run at the line's end, then the run followed by more fields.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","dst_port":7}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","dst_port":7,"metric":"rtt"}`},
	// The run followed by a field the schema puts earlier.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","src_ip":"a","value":1}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","src_ip":"a","rev_id":"r","value":1}`},
	// A line declined after its run, then a good line with the same run.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","dst_port":7,"value":01}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","dst_port":7,"value":1}`},
	// The run, then a repeated flow_id key, then a trailing comma.
	{`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r"}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r","flow_id":"f"}`},
	{`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r"}`,
		`{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r",}`},
	// A run before time_ns: the line needs time_ns all the same.
	{`{"kind":"metric","time_ns":1,"flow_id":"f"}`,
		`{"kind":"metric","flow_id":"f"}`},
	// A flow_id that is not a string, and an empty one.
	{`{"kind":"metric","time_ns":1,"flow_id":"5"}`,
		`{"kind":"metric","time_ns":1,"flow_id":5}`},
	{`{"kind":"metric","time_ns":1,"flow_id":""}`,
		`{"kind":"metric","time_ns":1,"flow_id":"","rev_id":"r"}`},
}

// FuzzParseJSONLine holds ParseJSONLine to the reference decoder on
// every line, with a warm interner: a, b, a and b again go through one
// Interner, so that each line may meet the identity run the other left.
// The seeds are the identity-run pairs above and the boundary lines of
// TestDecodeBoundaries, each paired with the metric line of the same
// flow.
func FuzzParseJSONLine(f *testing.F) {
	for _, pair := range identityRunSeeds {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	metric := `{"kind":"metric","time_ns":1,"flow_id":"f","rev_id":"r","src_ip":"10.0.0.1","dst_ip":"10.1.0.1","src_port":4,"dst_port":5201,"proto":"tcp","metric":"rtt","value":1}`
	for _, row := range decodeBoundaries {
		f.Add([]byte(metric), []byte(boundaryLine(row.field, row.text)))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var in Interner
		for _, line := range [][]byte{a, b, a, b} {
			checkAgainstReference(t, &in, line)
		}
	})
}

// decodeBoundaries are number texts at the edges the fast paths turn
// on, each in one field: the integer loop's range checks (ports at
// 65535/65536, int64 and uint64 at their limits, 19 and 20 digits),
// the float path's exactness limit (2⁵³ ± 1, 19 digits, exponents at
// ±22), leading zeros, and -0 where the field is omitempty and where
// it is not.
var decodeBoundaries = []struct{ field, text string }{
	{"src_port", "65535"}, {"src_port", "65536"}, {"src_port", "0"}, {"src_port", "-0"}, {"src_port", "-1"}, {"src_port", "00"}, {"src_port", "05201"},
	{"time_ns", "9223372036854775807"}, {"time_ns", "9223372036854775808"},
	{"time_ns", "-9223372036854775808"}, {"time_ns", "-9223372036854775809"},
	{"time_ns", "-0"}, {"time_ns", "0"}, {"time_ns", "00"}, {"time_ns", "-01"},
	{"time_ns", "1000000000000000000"}, {"time_ns", "9999999999999999999"}, {"time_ns", "10000000000000000000"},
	{"active_flows", "-0"}, {"active_flows", "-9223372036854775808"},
	{"bytes", "18446744073709551615"}, {"bytes", "18446744073709551616"}, {"bytes", "99999999999999999999"},
	{"bytes", "184467440737095516150"}, {"bytes", "9007199254740993"}, {"bytes", "-0"}, {"bytes", "1e3"}, {"bytes", "7.0"},
	{"value", "9007199254740991"}, {"value", "9007199254740992"}, {"value", "9007199254740993"},
	{"value", "-9007199254740993"}, {"value", "9007199254740993.0"}, {"value", "900719925474099.3"},
	{"value", "1234567890123456789"}, {"value", "12345678901234567891"}, {"value", "0.1234567890123456789"},
	{"value", "-0"}, {"value", "-0.0"}, {"value", "0e5"}, {"value", "00.5"}, {"value", "0.5"}, {"value", "-0.5"},
	{"value", "1e22"}, {"value", "1e23"}, {"value", "1e-22"}, {"value", "1e-23"}, {"value", "123456e-22"},
	{"value", "9007199254740991e22"}, {"value", "9007199254740991e-22"}, {"value", "5e-324"}, {"value", "1e-400"},
	{"value", "1.7976931348623157e308"}, {"value", "1.8e308"}, {"value", "1E+2"}, {"value", "1e+0002"}, {"value", "1e"},
	{"value", "1."}, {"value", "-"}, {"value", ".5"}, {"value", "1.5e9999999999"}, {"value", "1.5e-9999999999"},
}

// boundaryLine is a metric line with text as the value of field, which
// the schema puts after time_ns unless it is time_ns.
func boundaryLine(field, text string) string {
	if field == "time_ns" {
		return `{"kind":"metric","time_ns":` + text + `,"unit":"ms"}`
	}
	return `{"kind":"metric","time_ns":1,"` + field + `":` + text + `}`
}

// TestDecodeBoundaries runs the boundary numbers through the decoder:
// it takes each exactly when the reference decoder (strconv) does, with
// the same value, and a value it takes is the one encoding/json decodes.
func TestDecodeBoundaries(t *testing.T) {
	var in Interner
	taken := 0
	for _, row := range decodeBoundaries {
		line := []byte(boundaryLine(row.field, row.text))
		if !checkAgainstReference(t, &in, line) {
			continue
		}
		taken++
		var got, viaJSON Report
		got.ParseJSONLine(line, &in)
		if err := json.Unmarshal(line, &viaJSON); err != nil || !sameReport(&got, &viaJSON) {
			t.Fatalf("%s: decoded %+v, encoding/json %+v (%v)", line, got, viaJSON, err)
		}
	}
	if taken < len(decodeBoundaries)/3 {
		t.Fatalf("the decoder took only %d of %d boundary lines", taken, len(decodeBoundaries))
	}
	for _, pair := range identityRunSeeds {
		var in Interner
		for _, line := range []string{pair[0], pair[1], pair[0], pair[1]} {
			checkAgainstReference(t, &in, []byte(line))
		}
	}
}

// TestEncodeBoundaries writes the boundary values of every numeric kind
// and checks each line against json.Marshal: floats at 2⁵³ ± 1 and its
// negatives, -0 (omitted, as encoding/json omits it), integers at the
// limits of int64, uint64 and uint16.
func TestEncodeBoundaries(t *testing.T) {
	floats := []float64{1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), math.Nextafter(1<<53, 0),
		math.Copysign(0, -1), 0.1, 16.777216, 999999999.999999, 1e9, 1e15 - 1, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0)}
	reports := []Report{
		{TimeNs: math.MinInt64, ActiveFlows: math.MinInt64, SrcPort: math.MaxUint16, Bytes: math.MaxUint64},
		{TimeNs: math.MaxInt64, ActiveFlows: math.MaxInt64, DstPort: 1, Packets: 1 << 63},
		{TimeNs: -1, BurstPackets: -1, StartNs: 1e18, EndNs: 1e18 - 1, TotalBytes: 1e19},
	}
	for _, v := range floats {
		reports = append(reports, Report{Kind: KindMetric, Value: v, Utilization: -v, RTTP50Ms: v / 3})
	}
	for _, r := range reports {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSONLine(nil)
		if err != nil || string(got) != string(want)+"\n" {
			t.Fatalf("AppendJSONLine(%+v) = %s (%v), json.Marshal %s", r, got, err, want)
		}
		if strings.Contains(string(got), `"value":-0`) {
			t.Fatalf("-0 written: %s", got)
		}
	}
}
