// Package nlg implements the Result Database Translator (paper §5.3): it
// renders the relational précis into a natural-language synthesis of
// results, driven by designer-supplied template labels on the schema graph
// and a small macro language supporting variables, loops and functions.
//
// The template language follows the paper's examples:
//
//	@DNAME + " was born on " + @BDATE + " in " + @BLOCATION + "."
//
//	DEFINE MOVIE_LIST as
//	  [i<arityOf(@TITLE)] {@TITLE[$i$] + " (" + @YEAR[$i$] + "), "}
//	  [i=arityOf(@TITLE)] {@TITLE[$i$] + " (" + @YEAR[$i$] + "). "}
//
// An expression is a +-concatenation of string literals, attribute
// references (@ATTR, or @ATTR[$i$] inside a loop section), macro names,
// arityOf(@ATTR), and the string functions upper(@ATTR) and lower(@ATTR).
// A template is a sequence of sections; a section guarded by
// [i<arityOf(@X)] renders its body for i = 1 .. arity-1, and [i=arityOf(@X)]
// renders it once with i = arity, which together produce comma-separated
// lists with a distinct final separator.
package nlg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// values is what a template evaluates against. arity is the number of values
// bound to an attribute (0 when unbound); appendValue appends the i-th of them
// (0-based, i < arity) to dst. The translator's binding frames implement it,
// finding an attribute by its number; the tests' Context, by its name.
type values interface {
	arity(a attr) int
	appendValue(dst []byte, a attr, i int) []byte
}

// attr is an attribute a template names: upper-cased, and numbered by
// internAttr, so that the translator resolves it to a column once per relation
// and narration and then finds it by that number (render.go).
type attr struct {
	name string
	id   int32
}

// attrIDs numbers the attribute names of every template parsed in the process,
// in order of first appearance. Only parsing writes it; it grows with the
// distinct names the annotations and macros of a deployment use.
var attrIDs = struct {
	sync.Mutex
	ids   map[string]int32
	count atomic.Int32 // len(ids), read without the lock
}{ids: map[string]int32{}}

func internAttr(name string) attr {
	attrIDs.Lock()
	defer attrIDs.Unlock()
	id, ok := attrIDs.ids[name]
	if !ok {
		id = int32(len(attrIDs.ids))
		attrIDs.ids[name] = id
		attrIDs.count.Store(id + 1)
	}
	return attr{name, id}
}

// Macros is a registry of named templates usable inside expressions.
type Macros map[string]*Template

// Template is a parsed template: an ordered list of sections.
type Template struct {
	src      string
	sections []section
}

// Source returns the original template text.
func (t *Template) Source() string { return t.src }

// section is one optionally-guarded piece of a template.
type section struct {
	guard *guard
	body  []exprNode
}

// guardOp distinguishes [i<arityOf(..)] from [i=arityOf(..)].
type guardOp uint8

const (
	guardLess guardOp = iota // loop i = 1 .. arity-1
	guardEq                  // render once with i = arity
)

type guard struct {
	op   guardOp
	attr // the attribute whose arity bounds the loop
}

// exprNode is one term of a +-concatenation.
type exprNode interface{ node() }

type litNode struct{ text string }

type attrNode struct {
	attr
	indexed bool // @ATTR[$i$]
}

type macroNode struct{ name string }

type arityNode struct{ attr }

// funcNode applies a string function (upper, lower) to an attribute value.
type funcNode struct {
	upper bool // upper, else lower
	attr  attrNode
}

func (litNode) node()   {}
func (attrNode) node()  {}
func (macroNode) node() {}
func (arityNode) node() {}
func (funcNode) node()  {}

// ParseTemplate parses a template expression such as a label or sentence.
func ParseTemplate(src string) (*Template, error) {
	p := &tparser{src: src}
	t, err := p.template()
	if err != nil {
		return nil, err
	}
	t.src = src
	return t, nil
}

// ParseDefine parses a macro definition of the form
// "DEFINE NAME as <template>" and returns the macro name and its template.
func ParseDefine(src string) (string, *Template, error) {
	trimmed := strings.TrimSpace(src)
	up := strings.ToUpper(trimmed)
	if !strings.HasPrefix(up, "DEFINE ") {
		return "", nil, fmt.Errorf("nlg: macro definition must start with DEFINE: %q", src)
	}
	rest := strings.TrimSpace(trimmed[len("DEFINE "):])
	sp := strings.IndexAny(rest, " \t\n")
	if sp < 0 {
		return "", nil, fmt.Errorf("nlg: DEFINE %q has no body", src)
	}
	name := rest[:sp]
	rest = strings.TrimSpace(rest[sp:])
	upRest := strings.ToUpper(rest)
	if !strings.HasPrefix(upRest, "AS ") && !strings.HasPrefix(upRest, "AS\n") {
		return "", nil, fmt.Errorf("nlg: DEFINE %s must be followed by 'as'", name)
	}
	body := strings.TrimSpace(rest[2:])
	t, err := ParseTemplate(body)
	if err != nil {
		return "", nil, fmt.Errorf("nlg: macro %s: %w", name, err)
	}
	return name, t, nil
}

// tparser is a recursive-descent parser over the template source.
type tparser struct {
	src string
	i   int
}

func (p *tparser) skipSpace() {
	for p.i < len(p.src) && (p.src[p.i] == ' ' || p.src[p.i] == '\t' || p.src[p.i] == '\n' || p.src[p.i] == '\r') {
		p.i++
	}
}

func (p *tparser) template() (*Template, error) {
	t := &Template{}
	p.skipSpace()
	for p.i < len(p.src) {
		if p.src[p.i] == '[' {
			g, err := p.guard()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.i >= len(p.src) || p.src[p.i] != '{' {
				return nil, fmt.Errorf("nlg: guard must be followed by {body} at offset %d", p.i)
			}
			p.i++ // consume {
			body, err := p.expr('}')
			if err != nil {
				return nil, err
			}
			if p.i >= len(p.src) || p.src[p.i] != '}' {
				return nil, fmt.Errorf("nlg: unterminated section body")
			}
			p.i++ // consume }
			t.sections = append(t.sections, section{guard: g, body: body})
		} else {
			body, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if len(body) > 0 {
				t.sections = append(t.sections, section{body: body})
			}
		}
		p.skipSpace()
	}
	if len(t.sections) == 0 {
		return nil, fmt.Errorf("nlg: empty template")
	}
	return t, nil
}

// guard parses [i<arityOf(@A)] or [i=arityOf(@A)].
func (p *tparser) guard() (*guard, error) {
	start := p.i
	p.i++ // consume [
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != 'i' {
		return nil, fmt.Errorf("nlg: guard must use loop variable i (offset %d)", start)
	}
	p.i++
	p.skipSpace()
	var op guardOp
	switch {
	case p.i < len(p.src) && p.src[p.i] == '<':
		op = guardLess
	case p.i < len(p.src) && p.src[p.i] == '=':
		op = guardEq
	default:
		return nil, fmt.Errorf("nlg: guard operator must be < or = (offset %d)", p.i)
	}
	p.i++
	p.skipSpace()
	if !p.consumeWord("arityOf") {
		return nil, fmt.Errorf("nlg: guard must compare against arityOf(@A) (offset %d)", p.i)
	}
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != '(' {
		return nil, fmt.Errorf("nlg: arityOf needs parentheses (offset %d)", p.i)
	}
	p.i++
	p.skipSpace()
	a, err := p.attrName()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != ')' {
		return nil, fmt.Errorf("nlg: unterminated arityOf (offset %d)", p.i)
	}
	p.i++
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != ']' {
		return nil, fmt.Errorf("nlg: unterminated guard (offset %d)", p.i)
	}
	p.i++
	return &guard{op: op, attr: a}, nil
}

// consumeWord consumes the exact word (case-insensitive) if present.
func (p *tparser) consumeWord(w string) bool {
	if p.i+len(w) <= len(p.src) && strings.EqualFold(p.src[p.i:p.i+len(w)], w) {
		p.i += len(w)
		return true
	}
	return false
}

// peekWordWithParen reports whether the input continues with word followed
// (after optional spaces) by an opening parenthesis, distinguishing the
// function call upper(...) from a macro named UPPER.
func (p *tparser) peekWordWithParen(w string) bool {
	if p.i+len(w) > len(p.src) || !strings.EqualFold(p.src[p.i:p.i+len(w)], w) {
		return false
	}
	j := p.i + len(w)
	for j < len(p.src) && (p.src[j] == ' ' || p.src[j] == '\t') {
		j++
	}
	return j < len(p.src) && p.src[j] == '('
}

// funcCall parses (@ATTR[$i$]?) after a recognised function name.
func (p *tparser) funcCall(fn string) (exprNode, error) {
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != '(' {
		return nil, fmt.Errorf("nlg: %s needs parentheses", fn)
	}
	p.i++
	p.skipSpace()
	a, err := p.attrName()
	if err != nil {
		return nil, err
	}
	node := funcNode{upper: fn == "upper", attr: attrNode{attr: a}}
	p.skipSpace()
	if p.i < len(p.src) && p.src[p.i] == '[' {
		p.i++
		p.skipSpace()
		if !p.consumeWord("$i$") {
			return nil, fmt.Errorf("nlg: %s index must be $i$", fn)
		}
		p.skipSpace()
		if p.i >= len(p.src) || p.src[p.i] != ']' {
			return nil, fmt.Errorf("nlg: unterminated index in %s", fn)
		}
		p.i++
		node.attr.indexed = true
	}
	p.skipSpace()
	if p.i >= len(p.src) || p.src[p.i] != ')' {
		return nil, fmt.Errorf("nlg: unterminated %s", fn)
	}
	p.i++
	return node, nil
}

// attrName parses @NAME and returns NAME upper-cased and numbered.
func (p *tparser) attrName() (attr, error) {
	if p.i >= len(p.src) || p.src[p.i] != '@' {
		return attr{}, fmt.Errorf("nlg: expected @attribute (offset %d)", p.i)
	}
	p.i++
	start := p.i
	for p.i < len(p.src) && isWordByte(p.src[p.i]) {
		p.i++
	}
	if p.i == start {
		return attr{}, fmt.Errorf("nlg: @ must be followed by an attribute name (offset %d)", start)
	}
	return internAttr(strings.ToUpper(p.src[start:p.i])), nil
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// expr parses a +-concatenation until the stop byte (or a '[' starting a new
// section, or end of input when stop is 0).
func (p *tparser) expr(stop byte) ([]exprNode, error) {
	var out []exprNode
	for {
		p.skipSpace()
		if p.i >= len(p.src) {
			return out, nil
		}
		c := p.src[p.i]
		if stop != 0 && c == stop {
			return out, nil
		}
		if stop == 0 && c == '[' {
			return out, nil
		}
		node, err := p.term()
		if err != nil {
			return nil, err
		}
		out = append(out, node)
		p.skipSpace()
		if p.i < len(p.src) && p.src[p.i] == '+' {
			p.i++
			continue
		}
		// Without an explicit +, the expression ends.
		if p.i < len(p.src) {
			c := p.src[p.i]
			if (stop != 0 && c == stop) || (stop == 0 && c == '[') {
				return out, nil
			}
			if stop == 0 {
				return nil, fmt.Errorf("nlg: expected + between terms (offset %d)", p.i)
			}
			return nil, fmt.Errorf("nlg: expected + or %q (offset %d)", string(stop), p.i)
		}
	}
}

// term parses one expression term: literal, @attr[, index], macro, arityOf.
func (p *tparser) term() (exprNode, error) {
	c := p.src[p.i]
	switch {
	case c == '"' || c == '\'':
		quote := c
		p.i++
		var b []byte
		for p.i < len(p.src) && p.src[p.i] != quote {
			if p.src[p.i] == '\\' && p.i+1 < len(p.src) {
				p.i++
			}
			b = append(b, p.src[p.i])
			p.i++
		}
		if p.i >= len(p.src) {
			return nil, fmt.Errorf("nlg: unterminated string literal")
		}
		p.i++
		return litNode{text: string(b)}, nil

	case c == '@':
		a, err := p.attrName()
		if err != nil {
			return nil, err
		}
		// Optional [$i$] index.
		save := p.i
		p.skipSpace()
		if p.i < len(p.src) && p.src[p.i] == '[' {
			p.i++
			p.skipSpace()
			if p.consumeWord("$i$") {
				p.skipSpace()
				if p.i < len(p.src) && p.src[p.i] == ']' {
					p.i++
					return attrNode{attr: a, indexed: true}, nil
				}
				return nil, fmt.Errorf("nlg: unterminated index after @%s[$i$", a.name)
			}
			// Not an index: rewind (a section may follow).
			p.i = save
		} else {
			p.i = save
		}
		return attrNode{attr: a}, nil

	default:
		for _, fn := range []string{"upper", "lower"} {
			if p.peekWordWithParen(fn) {
				p.consumeWord(fn)
				node, err := p.funcCall(fn)
				if err != nil {
					return nil, err
				}
				return node, nil
			}
		}
		if p.consumeWord("arityOf") {
			p.skipSpace()
			if p.i >= len(p.src) || p.src[p.i] != '(' {
				return nil, fmt.Errorf("nlg: arityOf needs parentheses")
			}
			p.i++
			p.skipSpace()
			a, err := p.attrName()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.i >= len(p.src) || p.src[p.i] != ')' {
				return nil, fmt.Errorf("nlg: unterminated arityOf")
			}
			p.i++
			return arityNode{a}, nil
		}
		if isWordByte(c) {
			start := p.i
			for p.i < len(p.src) && isWordByte(p.src[p.i]) {
				p.i++
			}
			return macroNode{name: p.src[start:p.i]}, nil
		}
		return nil, fmt.Errorf("nlg: unexpected character %q (offset %d)", string(c), p.i)
	}
}

// appendTo appends the rendering of the template against ctx to dst. It
// returns the buffer on an error too (with a partial rendering at its end),
// so the caller keeps whatever it grew to.
func (t *Template) appendTo(dst []byte, ctx values, macros Macros) ([]byte, error) {
	var err error
	for _, s := range t.sections {
		if dst, err = renderSection(dst, s, ctx, macros, 0); err != nil {
			break
		}
	}
	return dst, err
}

const maxMacroDepth = 16

func renderSection(dst []byte, s section, ctx values, macros Macros, depth int) ([]byte, error) {
	if s.guard == nil {
		return renderBody(dst, s.body, ctx, macros, 0, depth)
	}
	arity := ctx.arity(s.guard.attr)
	var err error
	switch s.guard.op {
	case guardLess:
		for i := 1; i < arity && err == nil; i++ {
			dst, err = renderBody(dst, s.body, ctx, macros, i, depth)
		}
	case guardEq:
		if arity >= 1 {
			dst, err = renderBody(dst, s.body, ctx, macros, arity, depth)
		}
	}
	return dst, err
}

// renderBody evaluates a concatenation with loop index i (1-based; 0 means
// "no index in scope").
func renderBody(dst []byte, body []exprNode, ctx values, macros Macros, i int, depth int) ([]byte, error) {
	if depth > maxMacroDepth {
		return dst, fmt.Errorf("nlg: macro recursion deeper than %d", maxMacroDepth)
	}
	for _, n := range body {
		switch n := n.(type) {
		case litNode:
			dst = append(dst, n.text...)
		case attrNode:
			var err error
			if dst, err = appendAttr(dst, n, ctx, i); err != nil {
				return dst, err
			}
		case macroNode:
			m, ok := macros[n.name]
			if !ok {
				return dst, fmt.Errorf("nlg: unknown macro %s", n.name)
			}
			for _, ms := range m.sections {
				var err error
				if dst, err = renderSection(dst, ms, ctx, macros, depth+1); err != nil {
					return dst, err
				}
			}
		case arityNode:
			dst = strconv.AppendInt(dst, int64(ctx.arity(n.attr)), 10)
		case funcNode:
			start := len(dst)
			var err error
			if dst, err = appendAttr(dst, n.attr, ctx, i); err != nil {
				return dst, err
			}
			dst = changeCase(dst, start, n.upper)
		}
	}
	return dst, nil
}

// appendAttr appends @ATTR (every value, comma-separated) or @ATTR[$i$] (the
// i-th value, nothing when the list is shorter).
func appendAttr(dst []byte, n attrNode, ctx values, i int) ([]byte, error) {
	arity := ctx.arity(n.attr)
	if n.indexed {
		if i < 1 {
			return dst, fmt.Errorf("nlg: @%s[$i$] used outside a loop section", n.name)
		}
		if i <= arity {
			dst = ctx.appendValue(dst, n.attr, i-1)
		}
		return dst, nil
	}
	for k := 0; k < arity; k++ {
		if k > 0 {
			dst = append(dst, ", "...)
		}
		dst = ctx.appendValue(dst, n.attr, k)
	}
	return dst, nil
}

// changeCase upper- or lower-cases dst[start:] as strings.ToUpper/ToLower
// would: ASCII in place, anything else (a case mapping may change a rune's
// encoded length) through those functions.
func changeCase(dst []byte, start int, upper bool) []byte {
	tail := dst[start:]
	for _, c := range tail {
		if c >= 0x80 {
			if upper {
				return append(dst[:start], strings.ToUpper(string(tail))...)
			}
			return append(dst[:start], strings.ToLower(string(tail))...)
		}
	}
	for k, c := range tail {
		switch {
		case upper && 'a' <= c && c <= 'z':
			tail[k] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			tail[k] = c + ('a' - 'A')
		}
	}
	return dst
}
