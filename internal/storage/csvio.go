package storage

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The export format exists for the paper's second use case (§1): once a
// précis has extracted a small but constraint-satisfying sub-database,
// enterprises need to ship it — to test installations, demo machines, CI
// fixtures. A database exports as one CSV file per relation plus a JSON
// manifest carrying schemas, primary keys, foreign keys and indexes, and
// imports back losslessly (including tuple ids, so a re-imported précis
// still verifies against its original with VerifySubDatabase).

// manifest is the JSON sidecar of an exported database.
type manifest struct {
	Name      string             `json:"name"`
	Relations []manifestRelation `json:"relations"`
	Foreign   []ForeignKey       `json:"foreign_keys"`
}

type manifestRelation struct {
	Name    string           `json:"name"`
	Columns []manifestColumn `json:"columns"`
	Key     string           `json:"key,omitempty"`
	Indexes []string         `json:"indexes,omitempty"`
}

type manifestColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

const (
	manifestFile = "manifest.json"
	nullCell     = `\N`
	idColumn     = "__id"
)

func typeName(t ColType) string { return t.String() }

func typeFromName(s string) (ColType, error) {
	switch s {
	case "INT":
		return TypeInt, nil
	case "FLOAT":
		return TypeFloat, nil
	case "TEXT":
		return TypeString, nil
	case "BOOL":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("storage: unknown column type %q in manifest", s)
	}
}

// encodeCell renders a value for CSV; NULL becomes \N and a literal leading
// backslash is doubled so the encoding is unambiguous. A Float is written in a
// form strconv.ParseInt refuses ("3.0", not "3"), which is how a FLOAT column
// tells it from an Int on the way back.
func encodeCell(v Value) string {
	if v.IsNull() {
		return nullCell
	}
	s := v.String()
	if v.Kind() == KindFloat && !strings.ContainsAny(s, ".eIN") {
		return s + ".0"
	}
	if strings.HasPrefix(s, `\`) {
		return `\` + s
	}
	return s
}

// decodeCell parses a CSV cell back into a value of the declared type; an
// integer cell of a FLOAT column is an Int.
func decodeCell(cell string, t ColType) (Value, error) {
	if cell == nullCell {
		return Null, nil
	}
	if strings.HasPrefix(cell, `\\`) {
		cell = cell[1:]
	}
	switch t {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: bad INT cell %q: %w", cell, err)
		}
		return Int(n), nil
	case TypeFloat:
		if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
			return Int(n), nil
		}
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: bad FLOAT cell %q: %w", cell, err)
		}
		return Float(f), nil
	case TypeBool:
		switch cell {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		default:
			return Null, fmt.Errorf("storage: bad BOOL cell %q", cell)
		}
	default:
		return String(cell), nil
	}
}

// Export writes db as <relation>.csv files plus manifest.json under dir,
// creating the directory if needed.
func Export(db Reader, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := manifest{Name: db.Name(), Foreign: db.ForeignKeys()}
	for _, name := range db.RelationNames() {
		rel := db.Table(name)
		mr := manifestRelation{Name: name, Key: rel.Schema().Key, Indexes: rel.IndexedColumns()}
		for _, c := range rel.Schema().Columns {
			mr.Columns = append(mr.Columns, manifestColumn{Name: c.Name, Type: typeName(c.Type)})
		}
		m.Relations = append(m.Relations, mr)
		if err := exportRelation(rel, filepath.Join(dir, name+".csv")); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), blob, 0o644)
}

func exportRelation(rel Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := append([]string{idColumn}, rel.Schema().ColumnNames()...)
	if err := w.Write(header); err != nil {
		return err
	}
	var werr error
	rel.ScanRows(func(id TupleID, r Row) bool {
		row := make([]string, 0, r.Len()+1)
		row = append(row, strconv.FormatInt(int64(id), 10))
		for i := 0; i < r.Len(); i++ {
			row = append(row, encodeCell(r.Value(i)))
		}
		if err := w.Write(row); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}

// Import reads a database previously written by Export. Tuple ids are
// preserved, declared indexes are rebuilt, and referential integrity is
// re-checked (an import with dangling references fails).
func Import(dir string) (*Database, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("storage: bad manifest: %w", err)
	}
	db := NewDatabase(m.Name)
	for _, mr := range m.Relations {
		cols := make([]Column, 0, len(mr.Columns))
		for _, mc := range mr.Columns {
			t, err := typeFromName(mc.Type)
			if err != nil {
				return nil, err
			}
			cols = append(cols, Column{Name: mc.Name, Type: t})
		}
		schema, err := NewSchema(mr.Name, mr.Key, cols...)
		if err != nil {
			return nil, err
		}
		if _, err := db.CreateRelation(schema); err != nil {
			return nil, err
		}
		if err := importRelation(db, mr, filepath.Join(dir, mr.Name+".csv")); err != nil {
			return nil, err
		}
		for _, idx := range mr.Indexes {
			if err := db.Relation(mr.Name).CreateIndex(idx); err != nil {
				return nil, err
			}
		}
	}
	for _, fk := range m.Foreign {
		if err := db.AddForeignKey(fk); err != nil {
			return nil, err
		}
	}
	if violations := CheckIntegrity(db); len(violations) > 0 {
		return nil, fmt.Errorf("storage: import violates referential integrity: %s (and %d more)",
			violations[0], len(violations)-1)
	}
	return db, nil
}

// importRelation streams one relation's CSV into db. Malformed input is
// reported with the file, the 1-based line (as the csv parser tracks it, so
// quoted multi-line cells don't shift the count), and the offending column
// and cell — a bad fixture should cost seconds to locate, not a binary
// search over the file.
func importRelation(db *Database, mr manifestRelation, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	// Rows of the wrong arity are diagnosed below with column context
	// instead of the csv package's bare count mismatch.
	r.FieldsPerRecord = -1

	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("storage: %s: missing header: %w", path, err)
	}
	if len(header) != len(mr.Columns)+1 || header[0] != idColumn {
		return fmt.Errorf("storage: %s:1: header %v does not match manifest (want %q + %d columns)",
			path, header, idColumn, len(mr.Columns))
	}
	for i, mc := range mr.Columns {
		if header[i+1] != mc.Name {
			return fmt.Errorf("storage: %s:1: column %d is %q, manifest says %q",
				path, i, header[i+1], mc.Name)
		}
	}
	types := make([]ColType, len(mr.Columns))
	for i, mc := range mr.Columns {
		types[i], _ = typeFromName(mc.Type)
	}
	for {
		rec, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("storage: %s: %w", path, err)
		}
		line, _ := r.FieldPos(0)
		if len(rec) != len(types)+1 {
			return fmt.Errorf("storage: %s:%d: row has %d fields, schema %s wants %d (%s + %s)",
				path, line, len(rec), mr.Name, len(types)+1, idColumn, columnList(mr.Columns))
		}
		id, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return fmt.Errorf("storage: %s:%d: column %s: bad tuple id %q", path, line, idColumn, rec[0])
		}
		vals := make([]Value, len(types))
		for i, cell := range rec[1:] {
			v, err := decodeCell(cell, types[i])
			if err != nil {
				return fmt.Errorf("storage: %s:%d: column %s (field %d): %w",
					path, line, mr.Columns[i].Name, i+2, err)
			}
			vals[i] = v
		}
		if err := db.InsertWithID(mr.Name, TupleID(id), vals...); err != nil {
			return fmt.Errorf("storage: %s:%d: %w", path, line, err)
		}
	}
}

// columnList renders manifest column names for error messages.
func columnList(cols []manifestColumn) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}
