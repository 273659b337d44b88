package sqlx

import (
	"fmt"
	"strings"

	"precis/internal/storage"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// SelectStmt is SELECT [DISTINCT] cols FROM table [WHERE] [ORDER BY] [LIMIT].
type SelectStmt struct {
	Columns  []string // nil means *
	Distinct bool
	Table    string
	Where    Expr // may be nil
	OrderBy  []OrderKey
	Limit    int // -1 means no limit
	Offset   int // rows to skip before the limit applies
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Column string
	Desc   bool
}

// InsertStmt is INSERT INTO table VALUES (...).
type InsertStmt struct {
	Table  string
	Values []storage.Value
}

// CreateTableStmt is CREATE TABLE name (cols..., PRIMARY KEY (col)).
type CreateTableStmt struct {
	Schema *storage.Schema
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr // may be nil
}

// UpdateStmt is UPDATE table SET col = v, ... [WHERE expr]. Only literal
// assignments are supported, which is all the précis system needs.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr // may be nil
}

// SetClause is one col = literal assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  storage.Value
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Table string
}

// CreateIndexStmt is CREATE [ORDERED] INDEX ON table (col). Plain indexes
// are hash indexes (equality); ordered indexes are B-trees (ranges).
type CreateIndexStmt struct {
	Table   string
	Column  string
	Ordered bool
}

// ExplainStmt is EXPLAIN SELECT ...; it returns the chosen access path
// instead of executing the query.
type ExplainStmt struct {
	Inner *SelectStmt
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DropTableStmt) stmt()   {}
func (*CreateIndexStmt) stmt() {}
func (*ExplainStmt) stmt()     {}

// Expr is a boolean or scalar expression over one tuple.
type Expr interface {
	expr()
}

// ColumnRef names a column, or the pseudo-column "rowid".
type ColumnRef struct {
	Name string
	Pos  int
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
// enumerating it. *storage.Relation satisfies it (membership = the tuple is
// stored). Has must be safe for concurrent readers: a scatter/gather
// executor evaluates the same statement object on every shard at once.
type IDSet interface {
	Has(id storage.TupleID) bool
}

// RowIDInSet is rowid [NOT] IN <set> for a set too large, or too alive, to
// spell as a literal list: the result-database generator excludes the tuples
// already in D' with it instead of rebuilding a NOT IN list per join. It has
// no SQL syntax — statements carrying it are built as ASTs.
type RowIDInSet struct {
	Set IDSet
	Not bool
}

// RowIDIn is rowid IN (ids...) with the ids carried as ids: the generator's
// fetches name hundreds of tuples, and a literal InList would box each into a
// Value only for the planner to unbox it. The plan visits IDs in order,
// duplicates included, and never writes them. It has no SQL syntax.
type RowIDIn struct {
	IDs []storage.TupleID
}

// Like is <col> LIKE 'pattern' with % and _ wildcards, optional NOT.
type Like struct {
	Left    Expr
	Pattern string
	Not     bool
}

// IsNull is <col> IS [NOT] NULL.
type IsNull struct {
	Left Expr
	Not  bool
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
func (*Like) expr()       {}
func (*IsNull) expr()     {}
func (*Logical) expr()    {}
func (*Not) expr()        {}

// likeMatch implements LIKE semantics: % matches any run (possibly empty),
// _ matches exactly one byte; matching is case-sensitive like standard SQL
// with a binary collation.
func likeMatch(pattern, s string) bool {
	// Dynamic programming over pattern/state; patterns are short so the
	// simple recursion with memo on positions suffices.
	var match func(p, t string) bool
	match = func(p, t string) bool {
		for {
			if p == "" {
				return t == ""
			}
			switch p[0] {
			case '%':
				// Collapse consecutive %.
				for p != "" && p[0] == '%' {
					p = p[1:]
				}
				if p == "" {
					return true
				}
				for i := 0; i <= len(t); i++ {
					if match(p, t[i:]) {
						return true
					}
				}
				return false
			case '_':
				if t == "" {
					return false
				}
				p, t = p[1:], t[1:]
			default:
				if t == "" || p[0] != t[0] {
					return false
				}
				p, t = p[1:], t[1:]
			}
		}
	}
	return match(pattern, s)
}

// exprString renders an expression for error messages and EXPLAIN-style
// output; it is not guaranteed to re-parse.
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
	case *Like:
		not := ""
		if e.Not {
			not = " NOT"
		}
		return exprString(e.Left) + not + " LIKE '" + e.Pattern + "'"
	case *IsNull:
		if e.Not {
			return exprString(e.Left) + " IS NOT NULL"
		}
		return exprString(e.Left) + " IS NULL"
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
