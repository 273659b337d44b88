// Package xmlmap makes précis queries work over semi-structured data,
// realizing the paper's claim that "our approach is applicable to other
// types of (semi-)structured data as well" (§3, §7) and connecting to the
// XML keyword-search line of work it cites (XRank, XKeyword).
//
// Shred maps a data-centric XML document onto the relational model:
//
//   - every element name becomes a relation with an id primary key and,
//     below the root, a parent foreign key to its parent element's relation;
//   - XML attributes become TEXT columns;
//   - a child element that is pure text and occurs at most once per parent
//     is folded into a TEXT column of the parent (title, year, ...);
//   - repeated or structured children become their own relations;
//   - an element's own text content lands in a "text" column.
//
// The derived schema graph joins each relation to its parent in both
// directions (child→parent weight 1.0 — context always matters; parent→child
// 0.9), with the folded text columns as weighted projections and the first
// text-like column as the heading attribute. The result plugs directly into
// precis.New.
//
// The mapping requires each element name to appear under a single parent
// element name (true of data-centric XML like bibliographies or catalogs);
// documents violating that are rejected with a descriptive error.
package xmlmap

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"precis/internal/schemagraph"
	"precis/internal/storage"
)

// node is the generic parsed tree.
type node struct {
	name     string
	attrs    map[string]string
	text     string
	children []*node
}

// parse builds the tree from a decoder stream.
func parse(r io.Reader) (*node, error) {
	dec := xml.NewDecoder(r)
	var root *node
	var stack []*node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlmap: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &node{name: t.Name.Local, attrs: map[string]string{}}
			for _, a := range t.Attr {
				n.attrs[a.Name.Local] = a.Value
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmlmap: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlmap: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				// Collapse internal whitespace runs: narrative output wants
				// "remember the milk", not the document's indentation.
				s := strings.Join(strings.Fields(string(t)), " ")
				if s != "" {
					cur := stack[len(stack)-1]
					if cur.text != "" {
						cur.text += " "
					}
					cur.text += s
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlmap: empty document")
	}
	return root, nil
}

// isLeaf reports whether n is pure text (no attributes, no children).
func (n *node) isLeaf() bool { return len(n.attrs) == 0 && len(n.children) == 0 }

// elemInfo aggregates what Shred learned about one element name.
type elemInfo struct {
	name     string
	parent   string // "" for the root
	attrs    map[string]bool
	folded   map[string]bool // leaf child names folded into columns
	children map[string]bool // child element names that become relations
	hasText  bool
	count    int
}

// analyze walks the tree collecting per-element-name structure, validating
// the single-parent requirement and deciding which leaf children fold.
func analyze(root *node) (map[string]*elemInfo, []string, error) {
	infos := map[string]*elemInfo{}
	var order []string
	get := func(name string) *elemInfo {
		if inf, ok := infos[name]; ok {
			return inf
		}
		inf := &elemInfo{
			name:     name,
			attrs:    map[string]bool{},
			folded:   map[string]bool{},
			children: map[string]bool{},
		}
		infos[name] = inf
		order = append(order, name)
		return inf
	}

	// multiLeaf marks leaf child names seen more than once under a single
	// parent instance — those cannot fold into a column.
	multiLeaf := map[string]bool{}

	var walk func(n *node, parent string) error
	walk = func(n *node, parent string) error {
		inf := get(n.name)
		inf.count++
		if inf.count == 1 {
			inf.parent = parent
		} else if inf.parent != parent {
			return fmt.Errorf("xmlmap: element <%s> appears under both <%s> and <%s>; the relational mapping needs a single parent per element name",
				n.name, inf.parent, parent)
		}
		for a := range n.attrs {
			inf.attrs[a] = true
		}
		if n.text != "" {
			inf.hasText = true
		}
		perName := map[string]int{}
		for _, c := range n.children {
			perName[c.name]++
		}
		for _, c := range n.children {
			if c.isLeaf() && perName[c.name] == 1 {
				inf.folded[c.name] = true
			} else {
				if c.isLeaf() && perName[c.name] > 1 {
					multiLeaf[c.name] = true
				}
				inf.children[c.name] = true
			}
			if err := walk(c, n.name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		return nil, nil, err
	}

	// A leaf name that is multi-valued under any parent instance must be a
	// relation everywhere, for a consistent schema.
	for name, inf := range infos {
		for leaf := range inf.folded {
			if multiLeaf[leaf] {
				delete(inf.folded, leaf)
				inf.children[leaf] = true
			}
		}
		_ = name
	}
	return infos, order, nil
}

// columnName sanitizes an XML name into a SQL-ish identifier.
func columnName(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// Result carries the shredded database and its derived schema graph.
type Result struct {
	DB    *storage.Database
	Graph *schemagraph.Graph
	Root  string // relation name of the document root
}

// Shred parses and maps an XML document.
func Shred(r io.Reader) (*Result, error) {
	root, err := parse(r)
	if err != nil {
		return nil, err
	}
	infos, order, err := analyze(root)
	if err != nil {
		return nil, err
	}

	db := storage.NewDatabase("xml")
	// Only elements that survive as structure become relations: the root
	// plus every name some parent keeps as a child relation. Folded leaves
	// live on as columns of their parent.
	structural := map[string]bool{root.name: true}
	for _, inf := range infos {
		for c := range inf.children {
			structural[c] = true
		}
	}
	var kept []string
	for _, name := range order {
		if structural[name] {
			kept = append(kept, name)
		}
	}
	order = kept

	// Build schemas in first-seen (document) order.
	colsOf := map[string][]string{}
	for _, name := range order {
		inf := infos[name]
		cols := []storage.Column{{Name: "id", Type: storage.TypeInt}}
		var extras []string
		if inf.parent != "" {
			cols = append(cols, storage.Column{Name: "parent", Type: storage.TypeInt})
		}
		if inf.hasText {
			extras = append(extras, "text")
		}
		attrNames := setToSorted(inf.attrs)
		foldedNames := setToSorted(inf.folded)
		for _, a := range attrNames {
			extras = append(extras, columnName(a))
		}
		for _, f := range foldedNames {
			extras = append(extras, columnName(f))
		}
		extras = dedupeStrings(extras)
		for _, e := range extras {
			cols = append(cols, storage.Column{Name: e, Type: storage.TypeString})
		}
		schema, err := storage.NewSchema(relName(name), "id", cols...)
		if err != nil {
			return nil, fmt.Errorf("xmlmap: element <%s>: %w", name, err)
		}
		if _, err := db.CreateRelation(schema); err != nil {
			return nil, err
		}
		colsOf[name] = extras
	}
	for _, name := range order {
		inf := infos[name]
		if inf.parent == "" {
			continue
		}
		fk := storage.ForeignKey{
			FromRelation: relName(name), FromColumn: "parent",
			ToRelation: relName(inf.parent), ToColumn: "id",
		}
		if err := db.AddForeignKey(fk); err != nil {
			return nil, err
		}
	}

	// Populate.
	ids := map[string]int64{}
	var emit func(n *node, parentID int64) error
	emit = func(n *node, parentID int64) error {
		inf := infos[n.name]
		ids[n.name]++
		id := ids[n.name]
		vals := make([]storage.Value, 1, 2+len(colsOf[n.name])) // the stored row: sized once
		vals[0] = storage.Int(id)
		if inf.parent != "" {
			vals = append(vals, storage.Int(parentID))
		}
		// Column values by name.
		byCol := map[string]string{}
		if n.text != "" {
			byCol["text"] = n.text
		}
		for a, v := range n.attrs {
			byCol[columnName(a)] = v
		}
		for _, c := range n.children {
			if inf.folded[c.name] {
				byCol[columnName(c.name)] = c.text
			}
		}
		for _, col := range colsOf[n.name] {
			if v, ok := byCol[col]; ok {
				vals = append(vals, storage.String(v))
			} else {
				vals = append(vals, storage.Null)
			}
		}
		if _, err := db.Insert(relName(n.name), vals...); err != nil {
			return err
		}
		for _, c := range n.children {
			if inf.folded[c.name] {
				continue
			}
			if err := emit(c, id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(root, 0); err != nil {
		return nil, err
	}
	if err := db.CreateJoinIndexes(); err != nil {
		return nil, err
	}

	g, err := buildGraph(db, infos, order, colsOf)
	if err != nil {
		return nil, err
	}
	return &Result{DB: db, Graph: g, Root: relName(root.name)}, nil
}

// relName upper-cases element names into relation names, matching the
// paper's convention.
func relName(s string) string { return strings.ToUpper(columnName(s)) }

// buildGraph derives the weighted schema graph: child→parent 1.0 (an answer
// about a nested element carries its context), parent→child 0.9, folded
// text columns as 0.9 projections with the first one as heading.
func buildGraph(db *storage.Database, infos map[string]*elemInfo, order []string, colsOf map[string][]string) (*schemagraph.Graph, error) {
	g := schemagraph.New()
	for _, name := range order {
		g.AddRelation(relName(name))
	}
	for _, name := range order {
		rel := relName(name)
		inf := infos[name]
		if _, err := g.AddProjection(rel, "id", 0); err != nil {
			return nil, err
		}
		if inf.parent != "" {
			if _, err := g.AddProjection(rel, "parent", 0); err != nil {
				return nil, err
			}
		}
		for _, col := range colsOf[name] {
			if _, err := g.AddProjection(rel, col, 0.9); err != nil {
				return nil, err
			}
		}
		if heading := chooseHeading(inf, colsOf[name]); heading != "" {
			if err := g.SetHeading(rel, heading); err != nil {
				return nil, err
			}
		}
		if inf.parent != "" {
			parent := relName(inf.parent)
			if _, err := g.AddJoin(rel, parent, "parent", "id", 1.0); err != nil {
				return nil, err
			}
			if _, err := g.AddJoin(parent, rel, "id", "parent", 0.9); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(db); err != nil {
		return nil, err
	}
	return g, nil
}

// chooseHeading picks the attribute that characterizes tuples of the
// relation in narrative output: own text first, then conventional naming
// columns, then folded element columns (element text beats XML attributes),
// then whatever comes first.
func chooseHeading(inf *elemInfo, cols []string) string {
	for _, pref := range []string{"text", "name", "title"} {
		if contains(cols, pref) {
			return pref
		}
	}
	for _, f := range setToSorted(inf.folded) {
		if c := columnName(f); contains(cols, c) {
			return c
		}
	}
	if len(cols) > 0 {
		return cols[0]
	}
	return ""
}

func setToSorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func dedupeStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
