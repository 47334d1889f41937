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
	"math/bits"
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
// the collector to trace. Only the last segment is open; grow seals the
// full one before it, packing each of its columns as narrowly as the
// column's own values allow.
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

	seal *sealer // allocated at the first seal
	// The open columns of the last full-size segment sealed, cleared, for
	// the open segment to take instead of allocating its own.
	spare   segment
	spare32 [][]uint32
	spare64 [][]uint64

	bytes int // of the columns and the string and identity tables, for RegisterObs
}

// identity is what names a document's flow: the string-table ids of the
// identStrs fields and the identPorts fields' values.
type identity struct {
	ids   [5]uint32
	ports [2]uint16
}

// segment holds up to cap(flags) documents while it is open. A column is
// allocated, at full size, when the first non-zero value of its field
// lands, and 0 in it reads absent: the zero an omitempty field is never
// written with (time_ns's presence is flagTime). A sealed segment keeps
// its flags and present columns packed, in slot order, and the open
// columns are dropped.
type segment struct {
	flags []uint8
	ident []uint32                 // identity-table ids, for the fields of an identity
	ids   [][]uint32               // per field: string-table ids, for any other string field
	words [][]uint64               // per field: controlplane.Field.Word, for any other numeric one
	extra []map[string]interface{} // per document, allocated for the first with Extra

	has  uint64   // sealed: the slots cols holds, always flagSlot's; 0 while open
	cols []packed // sealed: one per slot in has, in slot order
	data []uint64 // sealed: every column's table and codes
	n    int      // sealed: its documents
}

// A slot names a column: a field's position for a column of its own,
// identSlot for the identity column and flagSlot for the flags.
var (
	identSlot = columns
	flagSlot  = columns + 1
)

// maxSlots bounds the slots a segment's has mask names.
const maxSlots = 64

// strSlots is all ones at a string field's position and 0 at a numeric
// one's: a sealed segment keeps both kinds of column in one slot space,
// and a read of the other kind's must answer 0, as an open segment's
// missing column does.
var strSlots = func() (m [maxSlots]uint64) {
	if flagSlot >= maxSlots {
		panic("psarchiver: Report_v1 has more fields than a sealed segment has slots")
	}
	for _, f := range strFields {
		m[f.Pos()] = ^uint64(0)
	}
	return m
}()

// packed is one sealed column, in the narrowest of Lucene's doc-values
// forms its words allow: a constant (no codes), codes into a table of at
// most 256 distinct words, frame-of-reference codes (word − base), or
// raw words (64-bit codes from a base of 0). A code is 1<<lg bits wide,
// 64>>lg codes to a word, so none straddles two words and a read is
// shifts and a mask.
type packed struct {
	base uint64 // the constant, or what a frame-of-reference code is added to
	mask uint64 // a code's bits; 0 for a constant
	off  uint32 // where the codes start in segment.data; a table precedes them
	tab  uint16 // the table's length, 0 for frame-of-reference codes
	lg   uint8  // log₂ of the code width
	per  uint8  // log₂ of the codes a word holds: 6 − lg
}

// docs is the number of documents the segment holds.
func (s *segment) docs() int {
	if s.has != 0 {
		return s.n
	}
	return len(s.flags)
}

// zeros is the column of a field no document of a segment holds.
var zeros [maxSegmentDocs]uint64

// column reads the column in slot as one word per document: an open
// segment's uint64 column itself, any other open column widened into
// *buf, a sealed column decoded into it; zeros for a column the segment
// lacks. *buf is allocated on first use.
func (s *segment) column(slot int, buf *[]uint64) []uint64 {
	if s.has == 0 {
		return s.openColumn(slot, buf)
	}
	bit := uint64(1) << slot
	if s.has&bit == 0 {
		return zeros[:s.n]
	}
	dst := words(buf, s.n)
	p := &s.cols[bits.OnesCount64(s.has&(bit-1))]
	if p.mask == 0 {
		for i := range dst {
			dst[i] = p.base
		}
		return dst
	}
	// width is 0 for raw words, one to a word, which are never shifted.
	codes, width, per := s.data[p.off:], uint(1)<<p.lg&63, 1<<p.per
	if p.tab != 0 {
		table := s.data[int(p.off)-int(p.tab) : p.off]
		for w := 0; w < len(dst); w += per {
			x := codes[w/per]
			for i := w; i < min(w+per, len(dst)); i++ {
				dst[i] = table[x&p.mask]
				x >>= width
			}
		}
		return dst
	}
	for w := 0; w < len(dst); w += per {
		x := codes[w/per]
		for i := w; i < min(w+per, len(dst)); i++ {
			dst[i] = p.base + x&p.mask
			x >>= width
		}
	}
	return dst
}

// mayHold reports whether a word of the sealed segment's column in slot
// can satisfy match. It tries each word the column can hold when they
// are few — a constant, a table, frame-of-reference codes of at most 8
// bits, or 0 for a column the segment lacks — and says true otherwise.
func (s *segment) mayHold(slot int, match func(uint64) bool) bool {
	bit := uint64(1) << slot
	if s.has&bit == 0 {
		return match(0)
	}
	p := &s.cols[bits.OnesCount64(s.has&(bit-1))]
	switch {
	case p.mask == 0:
		return match(p.base)
	case p.tab != 0:
		for _, w := range s.data[int(p.off)-int(p.tab) : p.off] {
			if match(w) {
				return true
			}
		}
		return false
	case p.lg <= 3:
		for code := uint64(0); code <= p.mask; code++ {
			if match(p.base + code) {
				return true
			}
		}
		return false
	}
	return true
}

func (s *segment) openColumn(slot int, buf *[]uint64) []uint64 {
	n := len(s.flags)
	switch {
	case slot == flagSlot:
		return widen(s.flags, words(buf, n))
	case slot == identSlot:
		if s.ident != nil {
			return widen(s.ident[:n], words(buf, n))
		}
	case s.ids[slot] != nil:
		return widen(s.ids[slot][:n], words(buf, n))
	case s.words[slot] != nil:
		return s.words[slot][:n]
	}
	return zeros[:n]
}

// words is *buf's first n words, allocating it on first use.
func words(buf *[]uint64, n int) []uint64 {
	if *buf == nil {
		*buf = make([]uint64, maxSegmentDocs)
	}
	return (*buf)[:n]
}

func widen[T uint8 | uint32](col []T, dst []uint64) []uint64 {
	for i, v := range col {
		dst[i] = uint64(v)
	}
	return dst
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
			seg.ident = ix.ids32(size)
			ix.bytes += 4 * size
		}
		seg.ident[i] = k
	}
	for _, f := range colStrs {
		if s, pos := f.Str(&doc.Report), f.Pos(); s != "" {
			if seg.ids[pos] == nil {
				seg.ids[pos] = ix.ids32(size)
				ix.bytes += 4 * size
			}
			seg.ids[pos][i] = ix.intern(pos, s)
		}
	}
	for _, f := range colNums {
		if w, pos := f.Word(&doc.Report), f.Pos(); w != 0 {
			if seg.words[pos] == nil {
				seg.words[pos] = ix.words64(size)
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

// grow seals the full segment, if there is one, opens the next and
// returns its position.
//
// p4:hotpath-exempt: once per segment, at most every minSegmentDocs documents and every maxSegmentDocs in a large index
func (ix *index) grow() int {
	size := minSegmentDocs
	if n := len(ix.segs); n > 0 {
		full := ix.segs[n-1]
		if size = 2 * full.docs(); size > maxSegmentDocs {
			size = maxSegmentDocs
		}
		ix.sealSegment(full)
	}
	next := &segment{flags: ix.spare.flags, ids: ix.spare.ids, words: ix.spare.words}
	if next.flags == nil || size != maxSegmentDocs {
		next = &segment{
			flags: make([]uint8, 0, size),
			ids:   make([][]uint32, columns),
			words: make([][]uint64, columns),
		}
	}
	ix.spare = segment{}
	ix.segs = append(ix.segs, next)
	ix.bytes += size
	return len(ix.segs) - 1
}

// sealer is an index's scratch for sealing: a hash set of the distinct
// words a column holds, the table it becomes and each document's code,
// and the packed words of the segment so far. Each index has its own, so
// two stores (or two indices) may seal at once.
type sealer struct {
	keys  [2 * tableMax]uint64 // the set's words
	slots [2 * tableMax]uint16 // the set: 1 + a word's code, 0 for an empty slot
	table [tableMax]uint64     // code → word
	codes [maxSegmentDocs]uint8
	out   []uint64
}

// tableMax is the most distinct words a table holds: 8-bit codes.
const tableMax = 256

// sealSegment packs a full segment's flags and present columns into one
// allocation and drops the open columns.
func (ix *index) sealSegment(seg *segment) {
	n := len(seg.flags)
	has, open := uint64(1)<<flagSlot, n
	if seg.ident != nil {
		has |= 1 << identSlot
		open += 4 * n
	}
	for pos := range seg.ids {
		if seg.ids[pos] != nil {
			has |= 1 << pos
			open += 4 * n
		} else if seg.words[pos] != nil {
			has |= 1 << pos
			open += 8 * n
		}
	}
	if ix.seal == nil {
		ix.seal = new(sealer)
	}
	sc := ix.seal
	sc.out = sc.out[:0]
	cols := make([]packed, 0, bits.OnesCount64(has))
	for rest := has; rest != 0; rest &= rest - 1 {
		var p packed
		switch slot := bits.TrailingZeros64(rest); {
		case slot == flagSlot:
			p = pack(sc, seg.flags)
		case slot == identSlot:
			p = pack(sc, seg.ident)
		case seg.ids[slot] != nil:
			p = pack(sc, seg.ids[slot])
		default:
			p = pack(sc, seg.words[slot])
		}
		cols = append(cols, p)
	}
	seg.data = make([]uint64, len(sc.out))
	copy(seg.data, sc.out)
	if n == maxSegmentDocs {
		ix.recycle(seg)
	}
	seg.has, seg.cols, seg.n = has, cols, n
	seg.flags, seg.ident, seg.ids, seg.words = nil, nil, nil, nil
	ix.bytes += 8*len(seg.data) - open
}

// recycle keeps a full-size segment's open columns, cleared, for the
// next: in a large index no segment allocates open columns of its own.
func (ix *index) recycle(seg *segment) {
	if seg.ident != nil {
		clear(seg.ident)
		ix.spare32 = append(ix.spare32, seg.ident)
	}
	for pos := range seg.ids {
		if col := seg.ids[pos]; col != nil {
			clear(col)
			ix.spare32 = append(ix.spare32, col)
		} else if col := seg.words[pos]; col != nil {
			clear(col)
			ix.spare64 = append(ix.spare64, col)
		}
	}
	clear(seg.ids)
	clear(seg.words)
	ix.spare = segment{flags: seg.flags[:0], ids: seg.ids, words: seg.words}
}

// ids32 returns a zeroed column of size ids, a spare when there is one.
func (ix *index) ids32(size int) []uint32 {
	if n := len(ix.spare32); n > 0 && size == maxSegmentDocs {
		col := ix.spare32[n-1]
		ix.spare32 = ix.spare32[:n-1]
		return col
	}
	return make([]uint32, size)
}

// words64 returns a zeroed column of size words, a spare when there is
// one.
func (ix *index) words64(size int) []uint64 {
	if n := len(ix.spare64); n > 0 && size == maxSegmentDocs {
		col := ix.spare64[n-1]
		ix.spare64 = ix.spare64[:n-1]
		return col
	}
	return make([]uint64, size)
}

// pack appends col's table and codes to sc.out and returns its column.
// Frame of reference takes the code width the column's spread needs;
// where that is over 8 bits, a table of its distinct words is tried, and
// kept when it and its codes take fewer words.
func pack[T uint8 | uint32 | uint64](sc *sealer, col []T) packed {
	lo, hi := bounds(col)
	p := packed{base: lo}
	if lo == hi {
		return p
	}
	p.lg = codeLog(hi - lo)
	n := len(col)
	size := codeWords(n, p.lg)
	tab := 0
	if p.lg > 3 {
		if t := tabulate(sc, col); t > 0 {
			if lg := codeLog(uint64(t - 1)); t+codeWords(n, lg) < size {
				p.lg, tab, size = lg, t, codeWords(n, lg)
			}
		}
	}
	p.mask, p.per = ^uint64(0)>>(64-1<<p.lg), 6-p.lg
	sc.out = append(sc.out, sc.table[:tab]...)
	p.off, p.tab = uint32(len(sc.out)), uint16(tab)
	sc.out = append(sc.out, make([]uint64, size)...)
	codes, lg, per := sc.out[p.off:], p.lg&63, 1<<p.per
	switch {
	case tab != 0:
		for w := range codes {
			var x uint64
			for k, code := range sc.codes[w*per : min(w*per+per, n)] {
				x |= uint64(code) << (uint(k) << lg & 63)
			}
			codes[w] = x
		}
	case lg == 6:
		for i, v := range col {
			codes[i] = uint64(v) - lo
		}
	default:
		for w := range codes {
			var x uint64
			for k, v := range col[w*per : min(w*per+per, n)] {
				x |= (uint64(v) - lo) << (uint(k) << lg & 63)
			}
			codes[w] = x
		}
	}
	return p
}

// bounds returns col's least and greatest word. Most columns of a
// segment hold one word, so that is checked first: a compare per word,
// where the bounds take two.
func bounds[T uint8 | uint32 | uint64](col []T) (lo, hi uint64) {
	first := col[0]
	for i, v := range col {
		if v != first {
			lo, hi = uint64(first), uint64(first)
			for _, v := range col[i:] {
				lo, hi = min(lo, uint64(v)), max(hi, uint64(v))
			}
			return lo, hi
		}
	}
	return uint64(first), uint64(first)
}

// codeLog is log₂ of the code width that holds codes up to v > 0: the
// bits v needs, rounded up to a power of two.
func codeLog(v uint64) uint8 { return uint8(bits.Len(uint(bits.Len64(v) - 1))) }

// codeWords is the words n codes of 1<<lg bits take.
func codeWords(n int, lg uint8) int { return (n<<lg + 63) >> 6 }

// tabulate gives each distinct word of col a code, in sc.table and
// sc.codes, and returns how many there are; 0 when there are more than
// tableMax.
func tabulate[T uint8 | uint32 | uint64](sc *sealer, col []T) int {
	clear(sc.slots[:])
	t := 0
	var prev uint64
	var code uint8
	for i, v := range col {
		w := uint64(v)
		if i == 0 || w != prev {
			h := w * 0x9e3779b97f4a7c15 >> (64 - 9) // the set has 2 * tableMax = 1<<9 slots
			for sc.slots[h] != 0 && sc.keys[h] != w {
				h = (h + 1) & (2*tableMax - 1)
			}
			if sc.slots[h] == 0 {
				if t == tableMax {
					return 0
				}
				sc.keys[h], sc.table[t] = w, w
				t++
				sc.slots[h] = uint16(t)
			}
			prev, code = w, uint8(sc.slots[h]-1)
		}
		sc.codes[i] = code
	}
	return t
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
// the same str and float a caller's Document answers with. A column is
// read as one word per document, loaded (a sealed one decoded whole)
// the first time a document of the segment needs it.
type cursor struct {
	ix    *index
	seg   *segment
	i     int
	extra map[string]interface{} // the document's Extra
	doc   Document
	ready bool // doc is document i

	read uint64             // the slots of seg that cols holds
	cols [maxSlots][]uint64 // per slot, seg's column read as words
	bufs [maxSlots][]uint64 // per slot, the cursor's own words to decode into
}

// cursors keeps cursors and their buffers between scans.
var cursors = sync.Pool{New: func() any { return new(cursor) }}

// enter moves the cursor to a segment.
func (c *cursor) enter(seg *segment) {
	c.seg, c.read = seg, 0
}

// column reads the segment's column in slot as one word per document.
func (c *cursor) column(slot int) []uint64 {
	if c.read&(1<<slot) == 0 {
		c.load(slot)
	}
	return c.cols[slot]
}

func (c *cursor) load(slot int) {
	c.cols[slot] = c.seg.column(slot, &c.bufs[slot])
	c.read |= 1 << slot
}

func (c *cursor) document() *Document {
	if !c.ready {
		fl := c.column(flagSlot)[c.i]
		c.doc = Document{Extra: c.extra, hasTime: fl&uint64(flagTime) != 0, meta: fl&uint64(flagMeta) != 0}
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
	pos := f.Pos()
	if j := identStr[pos]; j != 0 {
		return c.identity().ids[j-1]
	}
	if c.read&(1<<pos) == 0 { // column(pos), inlined by hand
		c.load(pos)
	}
	return uint32(c.cols[pos][c.i] & strSlots[pos])
}

// word reads a numeric field's word; 0 for +0 and for a string field.
func (c *cursor) word(f *controlplane.Field) uint64 {
	pos := f.Pos()
	if j := identPort[pos]; j != 0 {
		return uint64(c.identity().ports[j-1])
	}
	if c.read&(1<<pos) == 0 {
		c.load(pos)
	}
	return c.cols[pos][c.i] &^ strSlots[pos]
}

// identity reads the document's identity.
func (c *cursor) identity() *identity {
	if c.read&(1<<identSlot) == 0 {
		c.load(identSlot)
	}
	return &c.ix.idents[c.cols[identSlot][c.i]]
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
	return v, v != 0 || f == timeNsField && c.column(flagSlot)[c.i]&uint64(flagTime) != 0
}

// term is one of a query's Terms, with want's string-table id: 0 for ""
// and for a string the table lacks, which no column holds.
type term struct {
	f         *controlplane.Field
	key, want string
	id        uint32
	ids       []uint64 // the segment's column holding f's id: its own, the identity column, or zeros
}

// enter reads the column of the cursor's segment that holds t's ids.
func (t *term) enter(c *cursor) {
	switch {
	case t.f == nil:
	case identStr[t.f.Pos()] != 0:
		t.ids = c.column(identSlot)
	case strSlots[t.f.Pos()] != 0:
		t.ids = c.column(t.f.Pos())
	default: // a numeric field, whose id is 0
		t.ids = zeros[:]
	}
}

// matches is str(t.f, t.key) == t.want, on a column one id comparison.
func (c *cursor) matches(t *term) bool {
	if t.f == nil || c.extra != nil {
		return c.document().str(t.f, t.key) == t.want
	}
	id := uint32(t.ids[c.i])
	if j := identStr[t.f.Pos()]; j != 0 {
		id = c.ix.idents[id].ids[j-1]
	}
	return t.is(id)
}

// is reports whether a document whose column holds id matches t.
func (t *term) is(id uint32) bool { return id == t.id && (t.id != 0 || t.want == "") }

// excludes reports whether no document of a segment can match t: a
// sealed segment without Extra whose column holds none of the ids t
// wants, judged from the few words the column can hold.
func (t *term) excludes(ix *index, seg *segment) bool {
	if t.f == nil || seg.has == 0 || seg.extra != nil {
		return false
	}
	pos := t.f.Pos()
	switch j := identStr[pos]; {
	case j != 0:
		return !seg.mayHold(identSlot, func(k uint64) bool {
			return k < uint64(len(ix.idents)) && t.is(ix.idents[k].ids[j-1])
		})
	case strSlots[pos] == 0: // a numeric field, whose id is 0
		return !t.is(0)
	}
	return !seg.mayHold(pos, func(w uint64) bool { return t.is(uint32(w)) })
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
		terms = append(terms, term{f: controlplane.LookupField(k), key: k, want: v, id: ix.ids[v]})
	}
	c := cursors.Get().(*cursor)
	defer func() {
		c.ix, c.seg, c.extra, c.doc, c.cols = nil, nil, nil, Document{}, [maxSlots][]uint64{} // keep the buffers, not the store
		cursors.Put(c)
	}()
	c.ix = ix
segs:
	for _, seg := range ix.segs {
		for t := range terms {
			if terms[t].excludes(ix, seg) {
				continue segs
			}
		}
		c.enter(seg)
		for t := range terms {
			terms[t].enter(c)
		}
	docs:
		for i, n := 0, seg.docs(); i < n; i++ {
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
			visit(c)
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
