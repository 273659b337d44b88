// Package sqlx is the statement executor through which the précis engine
// talks to the storage layer, mirroring the paper's architecture in which the
// result database is produced "by submitting to the database a series of
// selection queries without joins". It executes one statement shape, built as
// a tree — there is no SQL text to parse:
//
//	SELECT cols FROM t [WHERE expr] [LIMIT n]
//
// Expressions are comparisons, IN lists, NOT, AND and OR, plus two id
// predicates that have no literal spelling (RowIDIn, RowIDInSet). The
// pseudo-column "rowid" exposes tuple ids the way Oracle's rowid does in the
// paper's prototype, and LIMIT plays the role of Oracle's RowNum top-k cut-off.
package sqlx

import (
	"fmt"
	"strings"

	"precis/internal/storage"
)

// Stmt is a statement an Engine executes. SelectStmt is the only one: the
// generator, the scatter/gather fetcher and the tests build their statements
// as trees, so there is no SQL text to parse and nothing writes through one.
type Stmt interface{ stmt() }

// SelectStmt is SELECT cols FROM table [WHERE] [LIMIT].
type SelectStmt struct {
	Columns []string // nil means *
	Table   string
	Where   Expr // may be nil
	Limit   int  // -1 means no limit
}

func (*SelectStmt) stmt() {}

// Expr is a boolean or scalar expression over one tuple.
type Expr interface {
	expr()
}

// ColumnRef names a column, or the pseudo-column "rowid".
type ColumnRef struct {
	Name string
}

// Literal is a constant value.
type Literal struct {
	Value storage.Value
}

// CompareOp is the operator of a comparison.
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Compare is <left> op <right>.
type Compare struct {
	Op          CompareOp
	Left, Right Expr
}

// InList is <col> IN (v1, ..., vn), with an optional NOT.
type InList struct {
	Left   Expr
	Values []storage.Value
	Not    bool
}

// IDSet is a caller-owned set of tuple ids that a predicate consults without
// enumerating it. *storage.ResultRelation satisfies it (membership = the
// tuple is in D'). Has must be safe for concurrent readers: a scatter/gather
// executor evaluates the same statement object on every shard at once.
type IDSet interface {
	Has(id storage.TupleID) bool
}

// RowIDInSet is rowid [NOT] IN <set> for a set too large, or too alive, to
// spell as a literal list: the result-database generator excludes the tuples
// already in D' with it instead of rebuilding a NOT IN list per join. It has
// no literal spelling.
type RowIDInSet struct {
	Set IDSet
	Not bool
}

// RowIDIn is rowid IN (ids...) with the ids carried as ids: the generator's
// fetches name hundreds of tuples, and a literal InList would box each into a
// Value only for the planner to unbox it. The plan visits IDs in order,
// duplicates included, and never writes them.
type RowIDIn struct {
	IDs []storage.TupleID
}

// Logical is AND / OR over two boolean operands.
type Logical struct {
	And         bool // true = AND, false = OR
	Left, Right Expr
}

// Not negates a boolean expression.
type Not struct {
	Inner Expr
}

func (*ColumnRef) expr()  {}
func (*Literal) expr()    {}
func (*Compare) expr()    {}
func (*InList) expr()     {}
func (*RowIDInSet) expr() {}
func (*RowIDIn) expr()    {}
func (*Logical) expr()    {}
func (*Not) expr()        {}

// exprString renders an expression, SQL-like, for error messages and tests.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *ColumnRef:
		return e.Name
	case *Literal:
		return e.Value.SQL()
	case *Compare:
		return exprString(e.Left) + " " + e.Op.String() + " " + exprString(e.Right)
	case *InList:
		var parts []string
		for _, v := range e.Values {
			parts = append(parts, v.SQL())
		}
		not := ""
		if e.Not {
			not = " NOT"
		}
		return exprString(e.Left) + not + " IN (" + strings.Join(parts, ", ") + ")"
	case *RowIDInSet:
		if e.Not {
			return RowIDColumn + " NOT IN <id set>"
		}
		return RowIDColumn + " IN <id set>"
	case *RowIDIn:
		return fmt.Sprintf("%s IN <%d ids>", RowIDColumn, len(e.IDs))
	case *Logical:
		op := " OR "
		if e.And {
			op = " AND "
		}
		return "(" + exprString(e.Left) + op + exprString(e.Right) + ")"
	case *Not:
		return "NOT (" + exprString(e.Inner) + ")"
	default:
		return "?"
	}
}
