// Package storage provides the in-memory table store: append-only tables
// held as immutable columnar segments (typed arrays + null bitmaps + zone
// maps, see segment.go) behind a mutable row-form tail, with optional
// sorted per-column indexes and lightweight statistics (row count,
// distinct-value estimate, min/max) consumed by the planner's cardinality
// model. It stands in for the disk/bufferpool layer of the DBMS the paper
// ran on; all rewrite strategies in the benchmarks run against the same
// store, so relative comparisons carry over.
package storage

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/types"
)

// DefaultSegmentRows is the sealing threshold: Append columnarizes the
// mutable tail into an immutable segment every time it reaches exactly
// this many rows, so every sealed segment holds DefaultSegmentRows rows
// and rowID→segment is a single division. Overridable at process start
// with the REPRO_SEGMENT_ROWS environment variable (min 1).
var DefaultSegmentRows = 16384

func init() {
	if s := os.Getenv("REPRO_SEGMENT_ROWS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			DefaultSegmentRows = n
		}
	}
}

// Table is an in-memory relation: sealed columnar segments plus a
// row-form tail, with optional sorted indexes.
type Table struct {
	Name    string
	Schema  *schema.Schema
	segRows int
	sealed  []*Segment
	tail    []schema.Row
	indexes map[int]*Index // column ordinal -> index
	stats   map[int]*ColStats
}

// NewTable creates an empty table. The segment size is captured from
// DefaultSegmentRows at creation time.
func NewTable(name string, s *schema.Schema) *Table {
	segRows := DefaultSegmentRows
	if segRows < 1 {
		segRows = 1
	}
	return &Table{
		Name:    strings.ToLower(name),
		Schema:  s,
		segRows: segRows,
		indexes: map[int]*Index{},
		stats:   map[int]*ColStats{},
	}
}

// Append adds rows to the table's mutable tail, sealing exact
// segRows-sized chunks into immutable columnar segments as the tail
// fills. Every existing index absorbs the call's rows in one merge that
// builds new slices (range scans handed out earlier keep reading the old
// ones), so an index scan after ingest sees the new rows; pass a batch
// per call to pay one merge per batch. Statistics go stale until
// Analyze. The loader pattern in this repo is bulk-load then index,
// matching the paper's load-then-query experiments.
func (t *Table) Append(rows ...schema.Row) error {
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("storage: row arity %d does not match schema %d for table %s", len(r), t.Schema.Len(), t.Name)
		}
	}
	base := t.RowCount()
	for ord, ix := range t.indexes {
		t.indexes[ord] = ix.merged(rows, base)
	}
	t.tail = append(t.tail, rows...)
	if len(t.tail) < t.segRows {
		return nil
	}
	for len(t.tail) >= t.segRows {
		base := len(t.sealed) * t.segRows
		t.sealed = append(t.sealed, sealSegment(base, t.Schema.Len(), t.tail[:t.segRows]))
		t.tail = t.tail[t.segRows:]
	}
	// Re-home the remainder so the sealed chunks' row headers are freed.
	rest := make([]schema.Row, len(t.tail), t.segRows)
	copy(rest, t.tail)
	t.tail = rest
	return nil
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return len(t.sealed)*t.segRows + len(t.tail) }

// SegmentRows returns the table's sealing threshold (rows per sealed
// segment).
func (t *Table) SegmentRows() int { return t.segRows }

// Segments returns the table's segments in row order: every sealed
// columnar segment, then (when non-empty) the mutable tail wrapped as an
// unsealed segment. The tail wrapper aliases the live buffer; callers
// hold the catalog read lock for the duration of a scan, so Append cannot
// run concurrently.
func (t *Table) Segments() []*Segment {
	segs := make([]*Segment, 0, len(t.sealed)+1)
	segs = append(segs, t.sealed...)
	if len(t.tail) > 0 {
		segs = append(segs, &Segment{Base: len(t.sealed) * t.segRows, n: len(t.tail), rows: t.tail})
	}
	return segs
}

// RowAt materializes the row with table-wide ID id.
func (t *Table) RowAt(id int) schema.Row {
	if k := id / t.segRows; k < len(t.sealed) {
		return t.sealed[k].Row(id - k*t.segRows)
	}
	return t.tail[id-len(t.sealed)*t.segRows]
}

// AllRows materializes every row in table order. When the table fits one
// segment the underlying (memoized or live) slice is returned directly;
// otherwise the segments are concatenated into a fresh slice.
func (t *Table) AllRows() []schema.Row {
	if len(t.sealed) == 0 {
		return t.tail
	}
	if len(t.sealed) == 1 && len(t.tail) == 0 {
		return t.sealed[0].Rows()
	}
	out := make([]schema.Row, 0, t.RowCount())
	for _, seg := range t.Segments() {
		out = append(out, seg.Rows()...)
	}
	return out
}

// MemBytes estimates the table's segment storage footprint.
func (t *Table) MemBytes() int64 {
	var b int64
	for _, seg := range t.sealed {
		b += seg.MemBytes()
	}
	b += int64(len(t.tail)) * int64(t.Schema.Len()+1) * 48
	return b
}

// SegmentCount returns the number of sealed segments.
func (t *Table) SegmentCount() int { return len(t.sealed) }

// Index is a sorted (value, rowID) list over one column, held as parallel
// slices so range scans can hand out rowID sub-slices without copying.
// NULLs are excluded: SQL predicates never select them from an index
// range scan.
type Index struct {
	Column int
	vals   []types.Value
	rows   []int32
}

// indexEntry is one (value, rowID) pair while an index is built.
type indexEntry struct {
	v   types.Value
	row int32
}

// valueLess orders index values. Mixed-kind columns are a schema
// violation; they order arbitrarily (never less).
func valueLess(a, b types.Value) bool {
	c, err := types.Compare(a, b)
	return err == nil && c < 0
}

// sortEntries orders entries by value, keeping row order among equal
// values, so equal keys scan in rowID order.
func sortEntries(entries []indexEntry) {
	sort.SliceStable(entries, func(a, b int) bool { return valueLess(entries[a].v, entries[b].v) })
}

// BuildIndex builds (or rebuilds) a sorted index on the named column.
func (t *Table) BuildIndex(column string) error {
	ord := t.Schema.IndexOf(column)
	if ord < 0 {
		return fmt.Errorf("storage: no column %q in table %s", column, t.Name)
	}
	entries := make([]indexEntry, 0, t.RowCount())
	for _, seg := range t.Segments() {
		for i := 0; i < seg.Len(); i++ {
			v := seg.Value(ord, i)
			if v.IsNull() {
				continue
			}
			entries = append(entries, indexEntry{v: v, row: int32(seg.Base + i)})
		}
	}
	sortEntries(entries)
	idx := &Index{
		Column: ord,
		vals:   make([]types.Value, len(entries)),
		rows:   make([]int32, len(entries)),
	}
	for i, e := range entries {
		idx.vals[i] = e.v
		idx.rows[i] = e.row
	}
	t.indexes[ord] = idx
	return nil
}

// merged returns a new index holding ix's entries plus the non-NULL
// values of rows, numbered from rowID base, in the order BuildIndex
// would give them: existing entries have lower rowIDs, so they precede
// new entries with equal values. ix itself is left untouched.
func (ix *Index) merged(rows []schema.Row, base int) *Index {
	add := make([]indexEntry, 0, len(rows))
	for i, r := range rows {
		if v := r[ix.Column]; !v.IsNull() {
			add = append(add, indexEntry{v: v, row: int32(base + i)})
		}
	}
	if len(add) == 0 {
		return ix
	}
	sortEntries(add)
	n := len(ix.vals) + len(add)
	out := &Index{Column: ix.Column, vals: make([]types.Value, 0, n), rows: make([]int32, 0, n)}
	i := 0
	for _, e := range add {
		// Copy the run of existing entries that sort at or before e in
		// bulk: a batch costs O(batch × log n) comparisons plus one copy.
		j := i + sort.Search(len(ix.vals)-i, func(k int) bool { return valueLess(e.v, ix.vals[i+k]) })
		out.vals, out.rows = append(out.vals, ix.vals[i:j]...), append(out.rows, ix.rows[i:j]...)
		out.vals, out.rows = append(out.vals, e.v), append(out.rows, e.row)
		i = j
	}
	out.vals, out.rows = append(out.vals, ix.vals[i:]...), append(out.rows, ix.rows[i:]...)
	return out
}

// IndexOn returns the index on the named column, or nil.
func (t *Table) IndexOn(column string) *Index {
	ord := t.Schema.IndexOf(column)
	if ord < 0 {
		return nil
	}
	return t.indexes[ord]
}

// HasIndex reports whether an index exists on the column ordinal.
func (t *Table) HasIndex(ord int) bool { return t.indexes[ord] != nil }

// IndexByOrdinal returns the index on the column ordinal, or nil.
func (t *Table) IndexByOrdinal(ord int) *Index { return t.indexes[ord] }

// Bounds describe a one-sided or two-sided range on an indexed column.
// Nil pointers mean unbounded on that side.
type Bounds struct {
	Lo     *types.Value
	LoIncl bool
	Hi     *types.Value
	HiIncl bool
	Equals *types.Value // exact-match lookup; overrides Lo/Hi
}

// Scan returns the row IDs whose column value falls inside b, in index
// (value) order. The result is a sub-slice view of the index's rowID
// array — no copy — and must be treated as read-only; it stays valid
// until the index is rebuilt.
func (ix *Index) Scan(b Bounds) []int32 {
	if b.Equals != nil {
		v := *b.Equals
		b = Bounds{Lo: &v, LoIncl: true, Hi: &v, HiIncl: true}
	}
	lo := 0
	if b.Lo != nil {
		lo = sort.Search(len(ix.vals), func(i int) bool {
			c, err := types.Compare(ix.vals[i], *b.Lo)
			if err != nil {
				return true
			}
			if b.LoIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	hi := len(ix.vals)
	if b.Hi != nil {
		hi = sort.Search(len(ix.vals), func(i int) bool {
			c, err := types.Compare(ix.vals[i], *b.Hi)
			if err != nil {
				return true
			}
			if b.HiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if hi < lo {
		hi = lo
	}
	return ix.rows[lo:hi:hi]
}

// Len returns the number of non-null entries in the index.
func (ix *Index) Len() int { return len(ix.vals) }
