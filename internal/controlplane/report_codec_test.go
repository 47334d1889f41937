package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// genReport fills every field of a Report from the RNG, each one zero a
// third of the time (omitempty), with the values the float and string
// rules turn on over-represented: subnormals, the 1e-6 and 1e21 format
// boundaries from both sides, both signs, integers at the edge of their
// type, and strings that need an escape.
func genReport(rng *simtime.RNG) Report {
	floats := []float64{
		1, -1, 0.1, 9.5e9, 123456.789, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1e-9, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100, 1e-100, 5e-324, -5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), 0.30000000000000004,
	}
	plain := []string{"metric", "10.0.0.1", "deadbeefcafe0123", "tcp", "a b", "~", "x/y:z"}
	escaped := []string{`quo"te`, `back\slash`, "<html>", "a&b", "tab\there", "nl\n", "\x7f", "é", "日本", "\xff\xfe", "\u2028"}
	var r Report
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		if rng.Uint64()%3 == 0 {
			continue
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			if rng.Uint64()%32 == 0 {
				f.SetString(escaped[rng.Uint64()%uint64(len(escaped))])
			} else {
				f.SetString(plain[rng.Uint64()%uint64(len(plain))])
			}
		case reflect.Float64:
			if rng.Uint64()%2 == 0 {
				f.SetFloat(floats[rng.Uint64()%uint64(len(floats))])
			} else {
				f.SetFloat(math.Float64frombits(rng.Uint64()))
			}
		case reflect.Int64, reflect.Int:
			f.SetInt([]int64{1, -1, 42, math.MaxInt64, math.MinInt64, int64(rng.Uint64())}[rng.Uint64()%6])
		case reflect.Uint64:
			f.SetUint([]uint64{1, 1 << 53, math.MaxUint64, rng.Uint64()}[rng.Uint64()%4])
		case reflect.Uint16:
			f.SetUint([]uint64{1, 5201, math.MaxUint16}[rng.Uint64()%3])
		}
	}
	return r
}

// TestAppendJSONLineMatchesEncodingJSON is the encoder's whole contract:
// the line is json.Marshal's, byte for byte, and an error where
// json.Marshal returns one (a NaN or an infinity among the floats).
func TestAppendJSONLineMatchesEncodingJSON(t *testing.T) {
	rng := simtime.NewRNG(22)
	prefix := []byte("earlier line\n")
	for i := 0; i < 20000; i++ {
		r := genReport(rng)
		want, werr := json.Marshal(r)
		got, err := r.AppendJSONLine(append([]byte(nil), prefix...))
		if (err != nil) != (werr != nil) {
			t.Fatalf("report %+v: AppendJSONLine err=%v, json.Marshal err=%v", r, err, werr)
		}
		if err != nil {
			continue
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], append(want, '\n')) {
			t.Fatalf("report %+v:\n got %s\nwant %s", r, got[len(prefix):], want)
		}
	}
}

// TestParseJSONLineRoundTrip decodes what the encoder wrote: the typed
// decoder must take every line the fast encoder produced (so no shipper
// in this repository ever pays for the fallback) and rebuild the report
// exactly; a line it declines must be one the encoder routed through
// encoding/json.
func TestParseJSONLineRoundTrip(t *testing.T) {
	rng := simtime.NewRNG(23)
	var in Interner
	took := 0
	for i := 0; i < 20000; i++ {
		r := genReport(rng)
		line, err := r.AppendJSONLine(nil)
		if err != nil {
			continue
		}
		line = line[:len(line)-1]
		var back Report
		if !back.ParseJSONLine(line, &in) {
			var viaJSON Report
			if err := json.Unmarshal(line, &viaJSON); err != nil {
				t.Fatalf("encoder wrote a line encoding/json rejects: %s: %v", line, err)
			}
			if bytes.IndexByte(line, '\\') < 0 && bytes.IndexFunc(line, func(c rune) bool { return c > 0x7e }) < 0 {
				t.Fatalf("typed decoder declined an escape-free ASCII line: %s", line)
			}
			continue
		}
		took++
		if back != r {
			t.Fatalf("round trip of %s:\n got %+v\nwant %+v", line, back, r)
		}
	}
	if took < 10000 {
		t.Fatalf("typed decoder took only %d of 20000 generated lines", took)
	}
}

// TestFieldAccessors pins what psarchiver.Document builds on: lookup by
// JSON name and reads as encoding/json's float64.
func TestFieldAccessors(t *testing.T) {
	r := Report{Kind: KindMetric, TimeNs: -7, SrcPort: 5201, Value: 2.5, Bytes: math.MaxUint64, Metric: MetricRTT, ActiveFlows: -3}
	for name, want := range map[string]float64{"time_ns": -7, "src_port": 5201, "value": 2.5, "bytes": math.MaxUint64, "active_flows": -3, "kind": 0, "packets": 0} {
		if got := LookupField(name).Float(&r); got != want {
			t.Errorf("Float(%s) = %v, want %v", name, got, want)
		}
	}
	if LookupField("metric").Str(&r) != "rtt" || LookupField("value").Str(&r) != "" || LookupField("no_such") != nil {
		t.Error("Str / LookupField")
	}
}

// TestFieldWordRoundTrip pins what psarchiver's columns build on: every
// field survives Word/SetWord or Str/SetStr bit for bit (-0.0, NaN
// payloads, negative integers, MaxUint64 included).
func TestFieldWordRoundTrip(t *testing.T) {
	rng := simtime.NewRNG(24)
	str, num := Fields()
	fields := append(str, num...)
	seen := make(map[int]bool)
	for _, f := range fields {
		if seen[f.Pos()] || &schema[f.Pos()] != f {
			t.Fatalf("%s: Pos %d", f.name, f.Pos())
		}
		seen[f.Pos()] = true
	}
	if len(seen) != reflect.TypeOf(Report{}).NumField() {
		t.Fatalf("%d fields in the schema", len(seen))
	}
	for i := 0; i < 5000; i++ {
		r := genReport(rng)
		var back Report
		for _, f := range str {
			f.SetStr(&back, f.Str(&r))
		}
		for _, f := range num {
			f.SetWord(&back, f.Word(&r))
		}
		for _, f := range fields {
			if f.Word(&back) != f.Word(&r) || f.Str(&back) != f.Str(&r) {
				t.Fatalf("%s: %#x %q read back as %#x %q", f.name, f.Word(&r), f.Str(&r), f.Word(&back), f.Str(&back))
			}
		}
	}
}

// TestParseJSONLineDeclines lists lines the typed decoder must leave to
// encoding/json — valid JSON all of them, but not what AppendJSONLine
// writes — next to their nearest neighbours it must take.
func TestParseJSONLineDeclines(t *testing.T) {
	for line, want := range map[string]bool{
		`{"kind":"metric","time_ns":1}`:                              true,
		`{"kind":"","time_ns":0}`:                                    true,
		`{"kind":"metric","time_ns":-0}`:                             true,
		`{"kind":"metric","time_ns":1,"src_port":65535}`:             true,
		`{"kind":"metric","time_ns":1,"src_port":65536}`:             false,
		`{"kind":"metric","time_ns":1,"src_port":5201.0}`:            false,
		`{"kind":"metric","time_ns":1,"src_port":0}`:                 false,
		`{"kind":"metric","time_ns":1,"src_port":-1}`:                false,
		`{"kind":"metric","time_ns":1,"value":0}`:                    false,
		`{"kind":"metric","time_ns":1,"value":-0.0}`:                 false,
		`{"kind":"metric","time_ns":1,"value":1e400}`:                false,
		`{"kind":"metric","time_ns":1,"value":5e-324}`:               true,
		`{"kind":"metric","time_ns":1,"value":1E+2}`:                 true,
		`{"kind":"metric","time_ns":1,"value":01}`:                   false,
		`{"kind":"metric","time_ns":1,"value":1.}`:                   false,
		`{"kind":"metric","time_ns":1,"value":+1}`:                   false,
		`{"kind":"metric","time_ns":1,"value":0x10}`:                 false,
		`{"kind":"metric","time_ns":1,"value":"1"}`:                  false,
		`{"kind":"metric","time_ns":1,"flow_id":""}`:                 false,
		`{"kind":"metric","time_ns":1,"flow_id":"a\u0062"}`:          false,
		`{"kind":"metric","time_ns":1,"flow_id":"é"}`:                false,
		`{"kind":"metric","time_ns":1,"flow_id":"<&>"}`:              true,
		`{"kind":"metric","time_ns":9223372036854775807}`:            true,
		`{"kind":"metric","time_ns":9223372036854775808}`:            false,
		`{"kind":"metric","time_ns":1,"bytes":18446744073709551615}`: true,
		`{"kind":"metric","time_ns":1,"bytes":18446744073709551616}`: false,
		`{"time_ns":1,"kind":"metric"}`:                              false,
		`{"kind":"metric","kind":"alert","time_ns":1}`:               false,
		`{"kind":"metric"}`:                                          false,
		`{"kind":"metric","time_ns":1,"host":"x"}`:                   false,
		`{"kind":"metric", "time_ns":1}`:                             false,
		`{"kind":"metric","time_ns":1,}`:                             false,
		`{"kind":"metric","time_ns":1}}`:                             false,
		`{"kind":"metric","time_ns":1,"unit":"}`:                     false,
		`{"kind":"metric","time_ns":1,"unit":"a"b"}`:                 false,
		`{"kind":"metric","time_ns":}`:                               false,
		`{"kind":"metric","time_ns"}`:                                false,
		`{}`:                                                         false,
		`{`:                                                          false,
		``:                                                           false,
	} {
		var r Report
		if got := r.ParseJSONLine([]byte(line), nil); got != want {
			t.Errorf("ParseJSONLine(%s) = %v, want %v", line, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON checks the float rule's two shortcuts
// against encoding/json on the values they take and on their neighbours:
// integers on both sides of 2⁵³ and of every size up to 2⁶⁴, decimals
// of up to 15 significant digits with up to 9 decimals (the shortcut
// stops at 6), one ulp either side of each, and random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := simtime.NewRNG(25)
	pow10 := []float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	var vs []float64
	for _, v := range []float64{1, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e15, 1e15 - 1, 999999999.999999, 1e9, 1e-6, 1e-7, 0.5, 20.125, 16.777216} {
		vs = append(vs, v)
	}
	for i := 0; i < 100000; i++ {
		m := rng.Uint64() % []uint64{10, 1e3, 1e6, 1e9, 1e12, 1e15, 1 << 53}[rng.Uint64()%7]
		vs = append(vs, float64(m)/pow10[rng.Uint64()%uint64(len(pow10))], math.Float64frombits(rng.Uint64()), float64(rng.Uint64()>>(rng.Uint64()%64)))
	}
	for _, v := range vs {
		for _, w := range []float64{v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if math.IsInf(w, 0) || math.IsNaN(w) {
				continue
			}
			want, _ := json.Marshal(w)
			if got := appendFloat(nil, w); !bytes.Equal(got, want) {
				t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", w, got, want)
			}
		}
	}
}
