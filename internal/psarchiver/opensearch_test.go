package psarchiver

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// refIndex is the reference the store's columns are held to: documents
// by value in append-only segments, every filter evaluated on the
// Document through str and float.
type refIndex struct {
	segs [][]Document
	n    int
}

func (ix *refIndex) add(doc Document) {
	last := len(ix.segs) - 1
	if last < 0 || len(ix.segs[last]) == cap(ix.segs[last]) {
		size := minSegmentDocs
		if last >= 0 {
			if size = 2 * cap(ix.segs[last]); size > maxSegmentDocs {
				size = maxSegmentDocs
			}
		}
		ix.segs = append(ix.segs, make([]Document, 0, size))
		last++
	}
	ix.segs[last] = append(ix.segs[last], doc)
	ix.n++
}

func (ix *refIndex) scan(q Query, visit func(*Document)) {
	timeField := controlplane.LookupField(q.TimeField)
	for _, seg := range ix.segs {
	docs:
		for i := range seg {
			d := &seg[i]
			for k, want := range q.Terms {
				if d.str(controlplane.LookupField(k), k) != want {
					continue docs
				}
			}
			if q.TimeField != "" {
				t, ok := d.float(timeField, q.TimeField)
				if !ok || (q.FromNs != 0 && t < float64(q.FromNs)) || (q.ToNs != 0 && t >= float64(q.ToNs)) {
					continue
				}
			}
			visit(d)
		}
	}
}

func (ix *refIndex) search(q Query) []Document {
	var out []Document
	ix.scan(q, func(d *Document) { out = append(out, *d) })
	return out
}

func (ix *refIndex) aggregate(q Query, field string) (AggStats, error) {
	var st AggStats
	f := controlplane.LookupField(field)
	ix.scan(q, func(d *Document) {
		v, ok := d.float(f, field)
		if !ok {
			return
		}
		if st.Count == 0 || v < st.Min {
			st.Min = v
		}
		if st.Count == 0 || v > st.Max {
			st.Max = v
		}
		st.Sum += v
		st.Count++
	})
	if st.Count == 0 {
		return st, fmt.Errorf("psarchiver: no numeric %q values in %s", field, q.Index)
	}
	st.Mean = st.Sum / float64(st.Count)
	return st, nil
}

// Small pools, so that terms match and time bounds cut.
var (
	diffStrings = []string{"", "metric", "flow_summary", "aa", "bb", "alpha", "sw1", "rtt", "ms"}
	diffFloats  = []float64{0, math.Copysign(0, -1), 1, -2.5, 1e21, 5e-324}
	diffInts    = []int64{0, 1, -1, 3000, 7000, math.MinInt64, math.MaxInt64}
	diffUints   = []uint64{0, 1, 5201, math.MaxUint16, math.MaxUint64}
)

func pick[T any](rng *simtime.RNG, from []T) T { return from[rng.Uint64()%uint64(len(from))] }

// diffReport sets a random subset of Report's fields from the pools.
func diffReport(rng *simtime.RNG) controlplane.Report {
	var r controlplane.Report
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		if rng.Uint64()%2 == 0 {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(pick(rng, diffStrings))
		case reflect.Float64:
			f.SetFloat(pick(rng, diffFloats))
		case reflect.Int64, reflect.Int:
			f.SetInt(pick(rng, diffInts))
		case reflect.Uint64:
			f.SetUint(pick(rng, diffUints))
		case reflect.Uint16:
			f.SetUint(pick(rng, diffUints) & math.MaxUint16)
		}
	}
	if rng.Uint64()%2 == 0 { // else what the subset left: often 0
		r.TimeNs = int64(rng.Uint64() % 10_000)
	}
	return r
}

// diffDocument is one of the shapes a store holds: a typed report, a
// pscheduler result whose Extra may repeat a schema key the report left
// empty, a foreign line with or without time_ns, a report of a few
// flows whose naming fields vary (flowReport) with and without Extra,
// and a Document a caller built without NewDocument; each with or
// without the metadata filter.
func diffDocument(rng *simtime.RNG) Document {
	var d Document
	switch rng.Uint64() % 7 {
	case 0, 1:
		d = NewDocument(diffReport(rng), nil)
	case 2:
		extra := obj{"pscheduler_type": pick(rng, diffStrings), "throughput": float64(rng.Uint64() % 100)}
		if rng.Uint64()%2 == 0 {
			extra["flow_id"] = pick(rng, diffStrings)
		}
		d = NewDocument(diffReport(rng), extra)
	case 3:
		d = Document{Extra: obj{"kind": pick(rng, diffStrings), "value": pick(rng, diffFloats)}}
		if rng.Uint64()%2 == 0 {
			d.Extra["time_ns"] = float64(rng.Uint64() % 10_000)
		}
	case 4:
		d = NewDocument(flowReport(rng), nil)
	case 5:
		d = NewDocument(flowReport(rng), obj{"pscheduler_type": "throughput", "src_ip": pick(rng, diffStrings)})
	default:
		d = Document{Report: diffReport(rng)}
	}
	if rng.Uint64()%2 == 0 {
		AddMetadata(&d)
	}
	return d
}

// flowBase holds the naming fields of three flows, two of them the two
// directions of one connection.
var flowBase = []controlplane.Report{
	{FlowID: "aa", RevID: "bb", SrcIP: "10.0.0.1", DstIP: "10.0.0.2", SrcPort: 40000, DstPort: 5201, Proto: "tcp"},
	{FlowID: "bb", RevID: "aa", SrcIP: "10.0.0.2", DstIP: "10.0.0.1", SrcPort: 5201, DstPort: 40000, Proto: "tcp"},
	{FlowID: "cc", RevID: "dd", SrcIP: "10.0.0.3", DstIP: "10.0.0.4", SrcPort: 40001, DstPort: 5201, Proto: "udp"},
}

// flowReport is a report of one of flowBase's flows, stamped by one of
// several members, that now and then differs from its flow in exactly
// one other naming field or lacks some of them: the ways a document's
// identity can stray from the one its flow_id last had.
func flowReport(rng *simtime.RNG) controlplane.Report {
	r := pick(rng, flowBase)
	r.Kind = pick(rng, []string{"metric", "flow_summary"})
	r.TimeNs = int64(rng.Uint64() % 10_000)
	r.Value = pick(rng, diffFloats)
	r.SiteID, r.SwitchID = pick(rng, []string{"", "alpha", "beta"}), pick(rng, []string{"", "sw1", "sw2"})
	switch rng.Uint64() % 8 {
	case 0:
		r.RevID = pick(rng, []string{"", "aa", "dd", "ee"})
	case 1:
		r.SrcPort = uint16(pick(rng, diffUints))
	case 2:
		r.DstPort = uint16(pick(rng, diffUints))
	case 3:
		r.Proto = pick(rng, []string{"", "tcp", "udp"})
	case 4:
		for _, f := range slices.Concat(identStrs[1:], identPorts) {
			if rng.Uint64()%2 == 0 {
				f.SetStr(&r, "")
				f.SetWord(&r, 0)
			}
		}
	case 5:
		r.FlowID = ""
	}
	return r
}

func diffQuery(rng *simtime.RNG, index string) Query {
	q := Query{Index: index, Terms: map[string]string{}}
	keys := []string{"kind", "flow_id", "site_id", "metric", "unit", "host", "pipeline", "pscheduler_type", "nope", "value",
		"rev_id", "src_ip", "dst_ip", "proto", "src_port"}
	for n := rng.Uint64() % 3; n > 0; n-- {
		q.Terms[pick(rng, keys)] = pick(rng, append(diffStrings, "p4-switch-cp", "absent", "cc", "10.0.0.1", "10.0.0.4", "tcp", "udp"))
	}
	if rng.Uint64()%3 != 0 {
		q.TimeField = pick(rng, []string{"time_ns", "@timestamp_ns", "start_ns", "throughput"})
		q.FromNs = pick(rng, diffInts[:5])
		q.ToNs = pick(rng, []int64{0, 5000, 9000})
	}
	return q
}

// TestStoreMatchesReference holds Search, Count and Aggregate on the
// columns to the by-value reference over every document shape and
// query kind, in several indices of at least three full segments each,
// with a batch of queries after every seal (the scan then crosses sealed
// segments and the open one) and the whole mix at the end. In a and b
// total_packets first appears in the middle of a segment, and sealed
// segments hold documents with Extra; c holds typed reports of one
// flow_id at a time, so a term rules whole sealed segments out.
func TestStoreMatchesReference(t *testing.T) {
	rng := simtime.NewRNG(29)
	s := NewStore()
	ref := map[string]*refIndex{"a": {}, "b": {}, "c": {}}
	late := controlplane.LookupField("total_packets")
	const lateFrom = 1500 // inside each index's first segment of 1024
	matched := 0
	for i := 0; i < 12600; i++ {
		name := pick(rng, []string{"a", "b", "c"})
		d := diffDocument(rng)
		if name == "c" {
			r := flowReport(rng)
			r.FlowID = flowBase[ref[name].n/700%len(flowBase)].FlowID
			d = NewDocument(r, nil)
		}
		if ref[name].n < lateFrom {
			late.SetWord(&d.Report, 0)
		}
		sealed := sealedSegments(s, name)
		s.Index(name, d)
		ref[name].add(d)
		if sealedSegments(s, name) > sealed {
			for j := 0; j < 10; j++ {
				matched += checkQuery(t, rng, s, ref)
			}
		}
	}
	for name, ix := range ref {
		if s.Count(name) != ix.n {
			t.Fatalf("Count(%s) = %d, reference %d", name, s.Count(name), ix.n)
		}
		if full := sealedSegments(s, name) - 6; full < 3 { // after those of 16, …, 512
			t.Fatalf("index %s sealed %d segments of %d documents, want at least 3", name, full, maxSegmentDocs)
		}
		var extra, lateMid, ruledOut bool
		cc := term{f: identStrs[0], key: "flow_id", want: "cc", id: s.indices[name].ids["cc"]}
		for _, seg := range s.indices[name].segs {
			if seg.open != nil {
				continue
			}
			extra = extra || seg.extra != nil
			c := cursor{ix: s.indices[name]}
			c.enter(seg)
			lateMid = lateMid || c.word(late) == 0 && seg.has&(1<<late.Pos()) != 0
			ruledOut = ruledOut || cc.excludes(s.indices[name], seg)
		}
		if name == "c" && !ruledOut {
			t.Fatalf("index c: no sealed segment rules out flow_id %q", cc.want)
		}
		if name != "c" && (!extra || !lateMid) {
			t.Fatalf("index %s: a sealed segment with Extra %v, one whose total_packets column starts absent %v", name, extra, lateMid)
		}
	}
	for i := 0; i < 500; i++ {
		matched += checkQuery(t, rng, s, ref)
	}
	if matched < 20000 {
		t.Fatalf("the queries matched only %d documents in all", matched)
	}
}

// sealedSegments counts an index's sealed segments.
func sealedSegments(s *Store, name string) int {
	n := 0
	if ix := s.indices[name]; ix != nil {
		for _, seg := range ix.segs {
			if seg.open == nil {
				n++
			}
		}
	}
	return n
}

// checkQuery runs one random query's Search and Aggregate on the store
// and on the reference, and returns how many documents it matched.
func checkQuery(t *testing.T, rng *simtime.RNG, s *Store, ref map[string]*refIndex) int {
	t.Helper()
	q := diffQuery(rng, pick(rng, []string{"a", "b", "c", "none"}))
	r := ref[q.Index]
	if r == nil {
		r = &refIndex{}
	}
	got, want := s.Search(q), r.search(q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search(%+v): %d documents, reference %d", q, len(got), len(want))
	}
	for j := range got {
		for _, f := range numFields {
			if f.Word(&got[j].Report) != f.Word(&want[j].Report) {
				t.Fatalf("Search(%+v)[%d] field %d: word %#x, reference %#x", q, j, f.Pos(), f.Word(&got[j].Report), f.Word(&want[j].Report))
			}
		}
	}
	field := pick(rng, []string{"value", "time_ns", "@timestamp_ns", "bytes", "src_port", "dst_port", "active_flows", "kind", "throughput", "missing"})
	gotSt, gotErr := s.Aggregate(q, field)
	wantSt, wantErr := r.aggregate(q, field)
	if gotSt != wantSt || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Aggregate(%+v, %s) = %+v, %v; reference %+v, %v", q, field, gotSt, gotErr, wantSt, wantErr)
	}
	return len(got)
}

// TestStoreBytesPerDoc bounds what a stored report_storm document costs
// the live heap: 65 536 metric documents of 1500 flows, four metrics per
// flow and tick with RTT quantiles on the RTT ones, may grow it by at
// most 32 B each. Sealed segments carry it: the flags and kind are
// constants, metric and unit constants or 1- and 2-bit codes, the RTT
// quantiles constants or 1-bit table codes, time_ns and the identity
// 16-bit frame-of-reference codes; value (977 distinct words) stays
// raw. A Document held by value costs about 392 B; with a column per
// naming field a stored one cost 83.3 B, and with the identity column
// in open segments 53.4 B.
func TestStoreBytesPerDoc(t *testing.T) {
	const flows, docs = 1500, 65536
	type flow struct {
		id, rev, src, dst string
		port              uint16
	}
	fl := make([]flow, flows)
	for i := range fl {
		fl[i] = flow{fmt.Sprintf("%016x", i*0x9e3779b9), fmt.Sprintf("%016x", i*0x7f4a7c15),
			fmt.Sprintf("10.0.%d.%d", i>>8, i&255), fmt.Sprintf("10.1.%d.%d", i>>8, i&255), uint16(40000 + i)}
	}
	units := []string{"bps", "percent", "ms", "percent"}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for n := 0; n < docs; n++ {
		tick, slot := n/(4*flows), n%(4*flows)
		m, f := slot/flows, &fl[slot%flows]
		r := controlplane.Report{
			Kind: controlplane.KindMetric, TimeNs: int64(tick)*200_000_000 + int64(slot),
			FlowID: f.id, RevID: f.rev, SrcIP: f.src, DstIP: f.dst, SrcPort: f.port, DstPort: 5201, Proto: "tcp",
			Metric: controlplane.AllMetrics()[m], Value: float64(n%977 + 1), Unit: units[m],
		}
		if r.Metric == controlplane.MetricRTT {
			r.RTTP50Ms, r.RTTP95Ms, r.RTTP99Ms = 2, 4, 8
		}
		d := NewDocument(r, nil)
		AddMetadata(&d)
		s.Index(indexNames[controlplane.KindMetric], d)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perDoc := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / docs
	runtime.KeepAlive(s)
	runtime.KeepAlive(fl)
	if perDoc > 32 {
		t.Fatalf("%.1f B of live heap per stored document, want at most 32", perDoc)
	}
	t.Logf("%.1f B per document; p4_archiver_store_bytes counts %.1f", perDoc, float64(s.indices[indexNames[controlplane.KindMetric]].bytes)/docs)
}

// TestStoreConcurrentReadersAndWriters runs writers (typed documents and
// ones with Extra, so the string table and the Extra slices grow) beside
// Search, Aggregate, CrossSite and a /metrics scrape; under -race it
// proves the store's locking, and at the end every document is counted.
func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.RegisterObs(reg)
	const writers, docs = 4, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				r := controlplane.Report{Kind: controlplane.KindFlowSummary, TimeNs: int64(i), SiteID: "s", SwitchID: fmt.Sprint("sw", w), FlowID: fmt.Sprint("f", i), Bytes: uint64(i + 1)}
				var extra map[string]interface{}
				if i%7 == 0 {
					extra = obj{"pscheduler_type": "throughput"}
				}
				s.Index("p4-psonar-flow_summary", NewDocument(r, extra))
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		q := Query{Index: "p4-psonar-flow_summary", Terms: map[string]string{"site_id": "s"}, TimeField: "time_ns", ToNs: docs}
		for {
			select {
			case <-done:
				return
			default:
			}
			s.Search(q)
			_, _ = s.Aggregate(q, "bytes") // no error once a document is in
			CrossSite(s, "p4-psonar")
			var b strings.Builder
			reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if got := CrossSite(s, "p4-psonar").Documents; got != writers*docs {
		t.Fatalf("CrossSite counted %d documents, want %d", got, writers*docs)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := fmt.Sprintf("p4_archiver_store_documents %d\n", writers*docs); !strings.Contains(b.String(), want) {
		t.Fatalf("scrape lacks %q", want)
	}
}
