package storage

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// A stored tuple's values are one record: a pointer-free allocation of whole
// 8-byte words, made when the tuple is inserted or updated and never written
// again. For a record of w columns it holds
//
//	w kind bytes, padded to 8 | w words | the text bytes
//
// A column's kind byte is its Value's kind, so NULL reads back as NULL. Its word is the int64, the
// canonical float bits or the bool as 0/1, or for text the offset of its
// bytes from the start of the record (low 32 bits) and their length (high 32
// bits); NULL's is 0. The collector never scans a record, and a record costs
// one allocation whatever its number of text columns.
type layout struct {
	width int      // columns in the record
	words int      // the offset of its first word
	types []Column // the declared record columns; nil for a record of undeclared types
	// cols maps a row's columns onto the record's: column i of a row is record
	// column cols[i] — each in turn, or a subset (a statement reads some of a
	// base relation's columns).
	cols []int
}

// maxRecord is the largest record: a text column's offset and length are 32
// bits each.
const maxRecord = math.MaxUint32

// identity backs the cols of a layout that reads every column in turn, up to
// its length; a wider one gets its own.
var identity = func() (ids [64]int) {
	for i := range ids {
		ids[i] = i
	}
	return ids
}()

// plain holds the layouts of untyped records of up to 16 columns (MakeRow),
// shared by every such record of one width.
var plain = func() (ls [17]layout) {
	for w := range ls {
		ls[w] = plainLayout(w, nil)
	}
	return ls
}()

// plainLayout returns the layout of records of width columns of the given
// declared types, read column by column: a relation's own.
func plainLayout(width int, types []Column) layout {
	cols := identity[:min(width, len(identity)):min(width, len(identity))]
	for i := len(cols); i < width; i++ { // wider than identity: a list of its own
		cols = append(cols, i)
	}
	return layout{width: width, words: (width + 7) &^ 7, types: types, cols: cols}
}

// same reports whether rows of l and rows of o read the same columns of
// records of one shape and declared types.
func (l *layout) same(o *layout) bool {
	return l == o || l.width == o.width && l.types != nil && o.types != nil && slices.Equal(l.cols, o.cols) &&
		slices.EqualFunc(l.types, o.types, func(a, b Column) bool { return a.Type == b.Type })
}

// encode returns the record of vals read through l: vals[j] in record column
// l.cols[j], every other column NULL. The caller has checked and converted
// the values (Relation.Fit); their text is copied.
func (l *layout) encode(vals []Value) *uint64 {
	size := l.words + 8*l.width
	for _, v := range vals {
		size += len(v.s)
	}
	rec := make([]uint64, max((size+7)/8, 1))
	b := unsafe.Slice((*byte)(unsafe.Pointer(&rec[0])), 8*len(rec))
	text := l.words + 8*l.width
	for j, v := range vals {
		c := l.cols[j]
		b[c] = byte(v.kind)
		w := v.n
		if v.kind == KindString {
			w = uint64(text) | uint64(len(v.s))<<32
			text += copy(b[text:], v.s)
		}
		rec[l.words/8+c] = w
	}
	return &rec[0]
}

// recordSize is the number of bytes of the record rec of layout l.
func (l *layout) recordSize(rec *uint64) int {
	size := l.words + 8*l.width
	p := unsafe.Pointer(rec)
	for c := 0; c < l.width; c++ {
		if Kind(*(*byte)(unsafe.Add(p, c))) == KindString {
			size += int(*(*uint64)(unsafe.Add(p, l.words+8*c)) >> 32)
		}
	}
	return (size + 7) &^ 7
}

// Row is a borrowed reference to a stored tuple's values: the record, and how
// to read it. It is valid for as long as it is held — a record is never
// written after the insert or update that made it, so an Update or Delete of
// the tuple leaves a Row taken before it reading what it read — and it is
// never to be written through. The zero Row holds no tuple.
type Row struct {
	rec *uint64
	lay *layout
}

// MakeRow returns a row holding vals in a record of its own. Its columns have
// no declared types, so a relation it is inserted into checks and copies them.
func MakeRow(vals ...Value) Row {
	if len(vals) < len(plain) {
		return Row{plain[len(vals)].encode(vals), &plain[len(vals)]}
	}
	lay := plainLayout(len(vals), nil)
	return Row{lay.encode(vals), &lay}
}

// Valid reports whether r holds a tuple.
func (r Row) Valid() bool { return r.rec != nil }

// Len returns the number of columns.
func (r Row) Len() int { return len(r.lay.cols) }

// Value returns column i. It allocates nothing: a string aliases the record.
func (r Row) Value(i int) Value {
	c, p := r.lay.cols[i], unsafe.Pointer(r.rec)
	v := Value{kind: Kind(*(*byte)(unsafe.Add(p, c))), n: *(*uint64)(unsafe.Add(p, r.lay.words+8*c))}
	if v.kind == KindString {
		v.s, v.n = text(p, v.n), 0
	}
	return v
}

// text returns the text the word w of the record at p locates.
func text(p unsafe.Pointer, w uint64) string {
	if w>>32 == 0 {
		return "" // and no pointer to the end of the record
	}
	return unsafe.String((*byte)(unsafe.Add(p, uint32(w))), int(w>>32))
}

// AppendText appends column i's display form to dst, as Value.AppendText.
func (r Row) AppendText(i int, dst []byte) []byte { return r.Value(i).AppendText(dst) }

// Values decodes the row into a new slice: the form a Tuple carries.
func (r Row) Values() []Value {
	vals := make([]Value, r.Len())
	for i := range vals {
		vals[i] = r.Value(i)
	}
	return vals
}

// Shares reports whether r and o read one record.
func (r Row) Shares(o Row) bool { return r.rec == o.rec }

// Projection reads the rows of one relation through a list of their columns,
// without copying a record: what a statement selecting some of a relation's
// columns returns. Rows read through a projection point into it, so it must
// stay where Project put it.
type Projection struct{ lay layout }

// Project sets p to read r's rows through cols: column i of a projected row
// is column cols[i] of r's. p may keep cols, which must not change afterwards.
func (r *Relation) Project(p *Projection, cols []int) {
	for _, c := range cols {
		if uint(c) >= uint(r.ncols) {
			panic(fmt.Sprintf("storage: %s has no column %d", r.schema.Name, c))
		}
	}
	p.lay = r.lay
	switch {
	case len(cols) == r.ncols && slices.Equal(cols, identity[:min(len(cols), len(identity))]):
	case unsafe.SliceData(r.lay.cols) == &identity[0]:
		p.lay.cols = cols
	default:
		p.lay.cols = make([]int, len(cols))
		for i, c := range cols {
			p.lay.cols[i] = r.lay.cols[c]
		}
	}
}

// Row returns row, a row of the relation p was projected from, read through p.
func (p *Projection) Row(row Row) Row { return Row{row.rec, &p.lay} }
