package dataplane

import (
	"fmt"
	"sort"
)

// This file models the P4 match-action table machinery: the construct
// a P4 program uses for forwarding and classification decisions, and
// the surface the control plane programs through the switch
// manufacturer's runtime API. The measurement program of the paper is
// mostly register-based, but its deployment still needs tables (e.g.
// to steer mirrored traffic to the right pipeline and to whitelist
// monitored subnets), and the runtime layer (p4runtime package) exposes
// them exactly like table writes on real hardware.

// MatchKind is a P4 match kind.
type MatchKind int

// The three match kinds the model supports.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
)

// String names the match kind the way P4 table definitions spell it.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	default:
		return "ternary"
	}
}

// FieldMatch matches one header field value.
type FieldMatch struct {
	// Value is the match value (big-endian semantic, as a uint64 for
	// the field widths this model needs).
	Value uint64
	// PrefixLen applies to LPM matches: the number of significant
	// leading bits of Width.
	PrefixLen int
	// Mask applies to ternary matches.
	Mask uint64
}

// TableEntry is one programmed row: match fields, an action name, and
// action parameters, plus a priority for ternary tables.
type TableEntry struct {
	Match    []FieldMatch
	Action   string
	Params   []uint64
	Priority int
}

// Table is a P4 match-action table with a fixed size, a match kind per
// key field, and a default action.
type Table struct {
	name    string
	kinds   []MatchKind
	width   []int // field width in bits, for LPM
	size    int
	entries []TableEntry

	// DefaultAction applies when no entry matches.
	DefaultAction string
	DefaultParams []uint64

	// Stats
	Hits   uint64
	Misses uint64
}

// NewTable declares a table. kinds and widths describe the key fields.
func NewTable(name string, size int, kinds []MatchKind, widths []int) *Table {
	if len(kinds) != len(widths) {
		panic(fmt.Sprintf("dataplane: table %s: %d kinds vs %d widths", name, len(kinds), len(widths)))
	}
	if size <= 0 {
		panic(fmt.Sprintf("dataplane: table %s needs positive size", name))
	}
	return &Table{name: name, kinds: kinds, width: widths, size: size}
}

// Name returns the table's P4 name.
func (t *Table) Name() string { return t.name }

// Len returns the number of programmed entries.
func (t *Table) Len() int { return len(t.entries) }

// Insert adds an entry, enforcing the table's capacity — on hardware a
// full table rejects further entries, and control planes must handle
// it.
func (t *Table) Insert(e TableEntry) error {
	if len(e.Match) != len(t.kinds) {
		return fmt.Errorf("dataplane: table %s: entry has %d fields, key has %d", t.name, len(e.Match), len(t.kinds))
	}
	if len(t.entries) >= t.size {
		return fmt.Errorf("dataplane: table %s full (%d entries)", t.name, t.size)
	}
	t.entries = append(t.entries, e)
	// Ternary and LPM resolve by priority / prefix length: keep the
	// entries sorted so Lookup scans best-first.
	sort.SliceStable(t.entries, func(i, j int) bool {
		if t.entries[i].Priority != t.entries[j].Priority {
			return t.entries[i].Priority > t.entries[j].Priority
		}
		return totalPrefix(t.entries[i]) > totalPrefix(t.entries[j])
	})
	return nil
}

func totalPrefix(e TableEntry) int {
	sum := 0
	for _, m := range e.Match {
		sum += m.PrefixLen
	}
	return sum
}

// Delete removes the first entry whose match fields equal e's.
func (t *Table) Delete(e TableEntry) error {
	for i, cur := range t.entries {
		if matchEqual(cur.Match, e.Match) {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("dataplane: table %s: entry not found", t.name)
}

func matchEqual(a, b []FieldMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup matches the key fields against the programmed entries and
// returns the winning action, or the default action on miss.
func (t *Table) Lookup(key []uint64) (action string, params []uint64, hit bool) {
	if len(key) != len(t.kinds) {
		panic(fmt.Sprintf("dataplane: table %s: lookup with %d fields", t.name, len(key)))
	}
	for i := range t.entries {
		if t.entryMatches(&t.entries[i], key) {
			t.Hits++
			return t.entries[i].Action, t.entries[i].Params, true
		}
	}
	t.Misses++
	return t.DefaultAction, t.DefaultParams, false
}

func (t *Table) entryMatches(e *TableEntry, key []uint64) bool {
	for i, m := range e.Match {
		switch t.kinds[i] {
		case MatchExact:
			if key[i] != m.Value {
				return false
			}
		case MatchLPM:
			shift := uint(t.width[i] - m.PrefixLen)
			if m.PrefixLen == 0 {
				continue // matches everything
			}
			if key[i]>>shift != m.Value>>shift {
				return false
			}
		case MatchTernary:
			if key[i]&m.Mask != m.Value&m.Mask {
				return false
			}
		}
	}
	return true
}
