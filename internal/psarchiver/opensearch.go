// Package psarchiver models the perfSONAR archiver of Figure 7: a
// Logstash data-processing pipeline (input plugins → filter → output
// plugin) in front of an OpenSearch document store. The control plane's
// Report_v1 records enter through the TCP input plugin (or directly,
// in-simulation), gain the OpenSearch metadata Logstash adds
// (Report_v2), and land in the store, where dashboards and experiments
// query them.
//
// A Document is a value, not a map: the typed controlplane.Report, one
// flag for the four constant fields Logstash adds, and a map only for
// what Report_v1's schema does not describe. A line of the shape
// Report.AppendJSONLine writes is decoded straight into the struct; any
// other line is kept as the map encoding/json decodes it into, so which
// lines are accepted, and what Str and Float then read, is what it was
// when a Document was that map.
package psarchiver

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/controlplane"
)

// Document is one stored record: the Report_v2 of Figure 7, i.e. the
// report fields plus Logstash-added metadata. Read it with Str and
// Float, which answer as the JSON object would: a Report_v1 field
// holding its zero is a key the wire never carried (every such field but
// kind and time_ns is omitempty), so it reads absent.
type Document struct {
	// Report holds the Report_v1 fields of a document that arrived typed
	// (Pipeline.Emit, a line the typed decoder took); time_ns is then
	// the exact int64 the switch stamped, not a float64 that went
	// through JSON.
	Report controlplane.Report
	// Extra holds what the schema does not describe: a pscheduler
	// result's own keys, or all of a line the typed decoder declined, as
	// encoding/json decoded it. Copies of a Document share it.
	Extra map[string]interface{}

	hasTime bool // Report.TimeNs is the document's time_ns (a foreign line's stays in Extra)
	meta    bool // AddMetadata ran: @version, host, pipeline and @timestamp_ns are present
}

// NewDocument wraps a report, with any keys outside Report_v1's schema
// in extra (nil for none), without touching JSON.
func NewDocument(r controlplane.Report, extra map[string]interface{}) Document {
	return Document{Report: r, Extra: extra, hasTime: true}
}

var errNotObject = errors.New("psarchiver: a document is a JSON object")

// UnmarshalJSON implements json.Unmarshaler.
func (d *Document) UnmarshalJSON(b []byte) error {
	_, err := d.decode(b, nil)
	return err
}

// decode fills d from one JSON line, reporting whether the typed decoder
// declined it and encoding/json was asked. JSON that is not an object —
// null, which decodes into a nil map without an error, included — is an
// error, never a document.
func (d *Document) decode(line []byte, in *controlplane.Interner) (fallback bool, err error) {
	if d.Report.ParseJSONLine(line, in) { // which clears the report itself
		d.Extra, d.hasTime, d.meta = nil, true, false
		return false, nil
	}
	*d = Document{}
	if err := json.Unmarshal(line, &d.Extra); err != nil {
		return true, err
	}
	if d.Extra == nil {
		return true, errNotObject
	}
	return true, nil
}

// The constants AddMetadata stamps.
var metaFields = map[string]string{"@version": "1", "host": "p4-switch-cp", "pipeline": "p4-psonar"}

// Str reads a string field; "" when it is absent or not a string.
func (d *Document) Str(key string) string { return d.str(controlplane.LookupField(key), key) }

// Float reads a numeric field, tolerating the integer variants a
// caller-built Extra may hold beside encoding/json's float64.
func (d *Document) Float(key string) (float64, bool) {
	return d.float(controlplane.LookupField(key), key)
}

// str and float are Str and Float with the schema lookup done — once per
// query rather than once per document, on the store's scan.
func (d *Document) str(f *controlplane.Field, key string) string {
	if f != nil {
		if s := f.Str(&d.Report); s != "" {
			return s
		}
	} else if s, ok := metaFields[key]; ok && d.meta {
		return s
	}
	s, _ := d.Extra[key].(string)
	return s
}

func (d *Document) float(f *controlplane.Field, key string) (float64, bool) {
	if d.hasTime && (key == "time_ns" || key == "@timestamp_ns" && d.meta) {
		return float64(d.Report.TimeNs), true
	}
	if f != nil {
		if v := f.Float(&d.Report); v != 0 {
			return v, true
		}
	}
	switch v := d.Extra[key].(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	case int:
		return float64(v), true
	case uint64:
		return float64(v), true
	}
	return 0, false
}

// Query selects documents from an index.
type Query struct {
	// Index to search. Required.
	Index string
	// Term equality constraints (string fields).
	Terms map[string]string
	// TimeField with FromNs/ToNs bounds the numeric time field
	// [FromNs, ToNs); zero values disable the bound.
	TimeField string
	FromNs    int64
	ToNs      int64
}

// Store is the OpenSearch stand-in: named indices of documents with
// the small query surface the experiments and dashboards need. It is
// safe for concurrent use (the live collector writes from a goroutine).
type Store struct {
	mu      sync.RWMutex
	indices map[string]*index
}

// index keeps its documents as columns, the way OpenSearch keeps doc
// values: append-only segments, each with one column per Report_v1
// field, a string field's values as ids into the index's string table.
// The seven fields that name a document's flow share one column: an id
// into the index's identity table, which holds each distinct identity
// once. A stored document never moves, and no column holds a pointer for
// the collector to trace.
type index struct {
	segs []*segment
	n    int

	strs   []string          // the string table: strs[id], strs[0] = ""
	ids    map[string]uint32 // its inverse, without ""
	last   []string          // per field, the previous document's string: most fields repeat it
	lastID []uint32          // and its id

	idents    []identity          // the identity table: idents[0] names no flow
	identOf   map[identity]uint32 // its inverse
	byFlow    map[string]uint32   // per flow_id, the identity its last document had
	lastIdent uint32              // the previous document's identity

	bytes int // of the columns and the string and identity tables, for RegisterObs
}

// identity is what names a document's flow: the string-table ids of the
// identStrs fields and the identPorts fields' values.
type identity struct {
	ids   [5]uint32
	ports [2]uint16
}

// segment holds up to cap(flags) documents. A column is allocated, at
// full size, when the first non-zero value of its field lands, and 0 in
// it reads absent: the zero an omitempty field is never written with
// (time_ns's presence is flagTime).
type segment struct {
	flags []uint8
	ident []uint32                 // identity-table ids, for the fields of an identity
	ids   [][]uint32               // per field: string-table ids, for any other string field
	words [][]uint64               // per field: controlplane.Field.Word, for any other numeric one
	extra []map[string]interface{} // per document, allocated for the first with Extra
}

const (
	flagTime uint8 = 1 << iota // Document.hasTime
	flagMeta                   // Document.meta
)

var (
	strFields, numFields = controlplane.Fields()
	columns              = len(strFields) + len(numFields) // per segment, one per field
	timeNsField          = controlplane.LookupField("time_ns")

	// The fields of an identity, in its order: flow_id first, the key
	// of index.byFlow.
	identStrs  = lookupFields("flow_id", "rev_id", "src_ip", "dst_ip", "proto")
	identPorts = lookupFields("src_port", "dst_port")
	// identStr and identPort map a field's position to 1 + its place in
	// identStrs or identPorts, 0 when it has a column of its own.
	identStr, identPort = identSlots(identStrs), identSlots(identPorts)
	// The fields with a column of their own.
	colStrs, colNums = ownColumns(strFields), ownColumns(numFields)
)

func lookupFields(names ...string) []*controlplane.Field {
	out := make([]*controlplane.Field, len(names))
	for i, name := range names {
		out[i] = controlplane.LookupField(name)
	}
	return out
}

func identSlots(fields []*controlplane.Field) []int {
	slot := make([]int, columns)
	for i, f := range fields {
		slot[f.Pos()] = i + 1
	}
	return slot
}

func ownColumns(fields []*controlplane.Field) (out []*controlplane.Field) {
	for _, f := range fields {
		if identStr[f.Pos()] == 0 && identPort[f.Pos()] == 0 {
			out = append(out, f)
		}
	}
	return out
}

// Segments start small, so an index of a few documents costs a few
// kilobytes, and double up to maxSegmentDocs.
const (
	minSegmentDocs = 16
	maxSegmentDocs = 1024
)

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{indices: make(map[string]*index)}
}

// Index appends a document to an index, creating it on first use.
func (s *Store) Index(name string, doc Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := s.indices[name]
	if ix == nil {
		ix = &index{strs: []string{""}, ids: make(map[string]uint32), last: make([]string, columns), lastID: make([]uint32, columns),
			idents: []identity{{}}, identOf: map[identity]uint32{{}: 0}, byFlow: make(map[string]uint32)}
		s.indices[name] = ix
	}
	ix.add(&doc)
}

// add is Index's steady state: the document's non-zero fields into the
// open segment's columns.
//
// p4:hotpath
func (ix *index) add(doc *Document) {
	last := len(ix.segs) - 1
	if last < 0 || len(ix.segs[last].flags) == cap(ix.segs[last].flags) {
		last = ix.grow()
	}
	seg := ix.segs[last]
	i, size := len(seg.flags), cap(seg.flags)
	var fl uint8
	if doc.hasTime {
		fl |= flagTime
	}
	if doc.meta {
		fl |= flagMeta
	}
	seg.flags = append(seg.flags, fl)
	if k := ix.identify(&doc.Report); k != 0 {
		if seg.ident == nil {
			seg.ident = make([]uint32, size)
			ix.bytes += 4 * size
		}
		seg.ident[i] = k
	}
	for _, f := range colStrs {
		if s, pos := f.Str(&doc.Report), f.Pos(); s != "" {
			if seg.ids[pos] == nil {
				seg.ids[pos] = make([]uint32, size)
				ix.bytes += 4 * size
			}
			seg.ids[pos][i] = ix.intern(pos, s)
		}
	}
	for _, f := range colNums {
		if w, pos := f.Word(&doc.Report), f.Pos(); w != 0 {
			if seg.words[pos] == nil {
				seg.words[pos] = make([]uint64, size)
				ix.bytes += 8 * size
			}
			seg.words[pos][i] = w
		}
	}
	if doc.Extra != nil {
		if seg.extra == nil {
			seg.extra = make([]map[string]interface{}, size)
		}
		seg.extra[i] = doc.Extra
	}
	ix.n++
}

// identify returns the id of r's identity. A stream of one flow's
// documents repeats the previous document's identity; a stream that
// interleaves flows repeats the identity its flow_id's last document
// had, which byFlow holds: the steady state's one map probe.
func (ix *index) identify(r *controlplane.Report) uint32 {
	if ix.same(ix.lastIdent, r) {
		return ix.lastIdent
	}
	k, seen := ix.byFlow[identStrs[0].Str(r)]
	if !seen || !ix.same(k, r) {
		k = ix.resolve(r, seen)
	}
	ix.lastIdent = k
	return k
}

// same reports whether identity k is r's.
func (ix *index) same(k uint32, r *controlplane.Report) bool {
	id := &ix.idents[k]
	for j, f := range identStrs {
		if ix.strs[id.ids[j]] != f.Str(r) {
			return false
		}
	}
	for j, f := range identPorts {
		if uint64(id.ports[j]) != f.Word(r) {
			return false
		}
	}
	return true
}

// resolve is identify's slow path: r's identity from its fields through
// the string table, added to the identity table on first sight, and made
// its flow_id's latest. seen says whether byFlow has the flow_id.
func (ix *index) resolve(r *controlplane.Report, seen bool) uint32 {
	var key identity
	for j, f := range identStrs {
		if s := f.Str(r); s != "" {
			key.ids[j] = ix.intern(f.Pos(), s)
		}
	}
	for j, f := range identPorts {
		key.ports[j] = uint16(f.Word(r))
	}
	k, ok := ix.identOf[key]
	if !ok {
		k = uint32(len(ix.idents))
		ix.idents = append(ix.idents, key)
		ix.identOf[key] = k
		ix.bytes += 24 + 28 // its table slot, its map key and id
	}
	if !seen {
		ix.bytes += 16 + 4 // the flow_id's byFlow key and id
	}
	ix.byFlow[ix.strs[key.ids[0]]] = k
	return k
}

// intern returns s's id in the string table, adding it on first sight.
func (ix *index) intern(pos int, s string) uint32 {
	if ix.last[pos] == s {
		return ix.lastID[pos]
	}
	id, ok := ix.ids[s]
	if !ok {
		id = uint32(len(ix.strs))
		ix.strs = append(ix.strs, s)
		ix.ids[s] = id
		ix.bytes += len(s) + 16 + 20 // the text, its table slot, its map key and id
	}
	ix.last[pos], ix.lastID[pos] = s, id
	return id
}

// grow opens the next segment and returns its position.
//
// p4:hotpath-exempt: once per segment, at most every minSegmentDocs documents and every maxSegmentDocs in a large index
func (ix *index) grow() int {
	size := minSegmentDocs
	if n := len(ix.segs); n > 0 {
		if size = 2 * cap(ix.segs[n-1].flags); size > maxSegmentDocs {
			size = maxSegmentDocs
		}
	}
	ix.segs = append(ix.segs, &segment{
		flags: make([]uint8, 0, size),
		ids:   make([][]uint32, columns),
		words: make([][]uint64, columns),
	})
	ix.bytes += size
	return len(ix.segs) - 1
}

// Count returns the number of documents in an index.
func (s *Store) Count(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ix := s.indices[name]; ix != nil {
		return ix.n
	}
	return 0
}

// Indices lists the index names, sorted.
func (s *Store) Indices() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.indices))
	for name := range s.indices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// cursor is a scan's position on one stored document. A rule on a
// schema field of a document without Extra reads the field's column;
// any other rule reads the Document, rebuilt once from the columns, with
// the same str and float a caller's Document answers with.
type cursor struct {
	ix    *index
	seg   *segment
	i     int
	extra map[string]interface{} // the document's Extra
	doc   Document
	ready bool // doc is document i
}

func (c *cursor) document() *Document {
	if !c.ready {
		c.doc = Document{Extra: c.extra, hasTime: c.seg.flags[c.i]&flagTime != 0, meta: c.seg.flags[c.i]&flagMeta != 0}
		for _, f := range strFields {
			f.SetStr(&c.doc.Report, c.ix.strs[c.id(f)])
		}
		for _, f := range numFields {
			f.SetWord(&c.doc.Report, c.word(f))
		}
		c.ready = true
	}
	return &c.doc
}

// id reads a string field's id; 0 for "" and for a numeric field.
func (c *cursor) id(f *controlplane.Field) uint32 {
	if j := identStr[f.Pos()]; j != 0 {
		return c.identity().ids[j-1]
	}
	if col := c.seg.ids[f.Pos()]; col != nil {
		return col[c.i]
	}
	return 0
}

// word reads a numeric field's word; 0 for +0 and for a string field.
func (c *cursor) word(f *controlplane.Field) uint64 {
	if j := identPort[f.Pos()]; j != 0 {
		return uint64(c.identity().ports[j-1])
	}
	if col := c.seg.words[f.Pos()]; col != nil {
		return col[c.i]
	}
	return 0
}

// identity reads the document's identity.
func (c *cursor) identity() *identity {
	if c.seg.ident == nil {
		return &c.ix.idents[0]
	}
	return &c.ix.idents[c.seg.ident[c.i]]
}

func (c *cursor) str(f *controlplane.Field, key string) string {
	if f == nil || c.extra != nil {
		return c.document().str(f, key)
	}
	return c.ix.strs[c.id(f)]
}

func (c *cursor) float(f *controlplane.Field, key string) (float64, bool) {
	if f == nil || c.extra != nil {
		return c.document().float(f, key)
	}
	v := f.WordFloat(c.word(f))
	return v, v != 0 || f == timeNsField && c.seg.flags[c.i]&flagTime != 0
}

// term is one of a query's Terms, with want's string-table id: 0 for ""
// and for a string the table lacks, which no column holds.
type term struct {
	f         *controlplane.Field
	key, want string
	id        uint32
}

// matches is str(t.f, t.key) == t.want, on a column one id comparison.
func (c *cursor) matches(t *term) bool {
	if t.f == nil || c.extra != nil {
		return c.document().str(t.f, t.key) == t.want
	}
	return c.id(t.f) == t.id && (t.id != 0 || t.want == "")
}

// scan calls visit, under the read lock and in insertion order, on each
// stored document matching q. visit must not keep the cursor.
func (s *Store) scan(q Query, visit func(*cursor)) {
	timeField := controlplane.LookupField(q.TimeField)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.indices[q.Index]
	if ix == nil {
		return
	}
	terms := make([]term, 0, len(q.Terms))
	for k, v := range q.Terms {
		terms = append(terms, term{controlplane.LookupField(k), k, v, ix.ids[v]})
	}
	c := cursor{ix: ix}
	for _, seg := range ix.segs {
		c.seg = seg
	docs:
		for i := range seg.flags {
			c.i, c.extra, c.ready = i, nil, false
			if seg.extra != nil {
				c.extra = seg.extra[i]
			}
			for t := range terms {
				if !c.matches(&terms[t]) {
					continue docs
				}
			}
			if q.TimeField != "" {
				t, ok := c.float(timeField, q.TimeField)
				if !ok || (q.FromNs != 0 && t < float64(q.FromNs)) || (q.ToNs != 0 && t >= float64(q.ToNs)) {
					continue
				}
			}
			visit(&c)
		}
	}
}

// Search returns the documents matching the query, in insertion order;
// changing one does not change what is stored (its Extra map, if it has
// one, is still the stored document's).
func (s *Store) Search(q Query) []Document {
	var out []Document
	s.scan(q, func(c *cursor) { out = append(out, *c.document()) })
	return out
}

// AggStats summarises a numeric field over a query result.
type AggStats struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	Sum   float64
}

// Aggregate computes min/max/mean/sum of field over the matching
// documents, mirroring the aggregations the perfSONAR dashboard issues.
func (s *Store) Aggregate(q Query, field string) (AggStats, error) {
	var st AggStats
	f := controlplane.LookupField(field)
	s.scan(q, func(c *cursor) {
		v, ok := c.float(f, field)
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
