package nlg

import (
	"strings"
	"testing"
)

// Context, Render and MustTemplate bind and render templates by name, outside
// a narrative: the unit tests of the template language and the reference
// walk (reference_test.go) use them; the translator's frames are the
// production binding.

// Context binds attribute names (upper-cased) to their value lists for one
// rendering. Arity of an attribute is len(Context[name]).
type Context map[string][]string

// Bind adds values under the canonical upper-cased key.
func (c Context) Bind(attr string, values []string) {
	c[strings.ToUpper(attr)] = values
}

func (c Context) arity(a attr) int { return len(c[a.name]) }

func (c Context) appendValue(dst []byte, a attr, i int) []byte {
	return append(dst, c[a.name][i]...)
}

// MustTemplate is ParseTemplate that panics, for the tests' fixed templates.
func MustTemplate(src string) *Template {
	t, err := ParseTemplate(src)
	if err != nil {
		panic(err)
	}
	return t
}

// Render evaluates the template against ctx with the given macro registry,
// into one buffer sized from the template's source.
func (t *Template) Render(ctx Context, macros Macros) (string, error) {
	buf, err := t.appendTo(make([]byte, 0, 2*len(t.src)), ctx, macros)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

func render(t *testing.T, src string, ctx Context, macros Macros) string {
	t.Helper()
	tpl, err := ParseTemplate(src)
	if err != nil {
		t.Fatalf("ParseTemplate(%q): %v", src, err)
	}
	out, err := tpl.Render(ctx, macros)
	if err != nil {
		t.Fatalf("Render(%q): %v", src, err)
	}
	return out
}

func TestRenderSimpleConcatenation(t *testing.T) {
	ctx := Context{}
	ctx.Bind("dname", []string{"Woody Allen"})
	ctx.Bind("bdate", []string{"December 1, 1935"})
	ctx.Bind("blocation", []string{"Brooklyn, New York, USA"})
	got := render(t, `@DNAME + " was born on " + @BDATE + " in " + @BLOCATION + "."`, ctx, nil)
	want := "Woody Allen was born on December 1, 1935 in Brooklyn, New York, USA."
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestRenderPaperMacro(t *testing.T) {
	// The exact MOVIE_LIST macro of §5.3.
	def := `DEFINE MOVIE_LIST as [i<arityOf(@TITLE)] {@TITLE[$i$] + " (" + @YEAR[$i$] + "), "} [i=arityOf(@TITLE)] {@TITLE[$i$] + " (" + @YEAR[$i$] + ")."}`
	name, tpl, err := ParseDefine(def)
	if err != nil {
		t.Fatal(err)
	}
	if name != "MOVIE_LIST" {
		t.Errorf("name = %q", name)
	}
	macros := Macros{name: tpl}
	ctx := Context{}
	ctx.Bind("dname", []string{"Woody Allen"})
	ctx.Bind("title", []string{"Match Point", "Melinda and Melinda", "Anything Else"})
	ctx.Bind("year", []string{"2005", "2004", "2003"})
	got := render(t, `"As a director, " + @DNAME + "'s work includes " + MOVIE_LIST`, ctx, macros)
	want := "As a director, Woody Allen's work includes Match Point (2005), Melinda and Melinda (2004), Anything Else (2003)."
	if got != want {
		t.Errorf("got %q\nwant %q", got, want)
	}
}

func TestRenderMacroSingleElement(t *testing.T) {
	def := `DEFINE L as [i<arityOf(@X)] {@X[$i$] + ", "} [i=arityOf(@X)] {@X[$i$] + "."}`
	name, tpl, err := ParseDefine(def)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{}
	ctx.Bind("x", []string{"only"})
	got := render(t, "L", ctx, Macros{name: tpl})
	if got != "only." {
		t.Errorf("got %q", got)
	}
}

func TestRenderMacroEmptyList(t *testing.T) {
	def := `DEFINE L as [i<arityOf(@X)] {@X[$i$] + ", "} [i=arityOf(@X)] {@X[$i$] + "."}`
	name, tpl, _ := ParseDefine(def)
	got := render(t, `"items: " + L`, Context{}, Macros{name: tpl})
	if got != "items: " {
		t.Errorf("got %q", got)
	}
}

func TestRenderUnboundAttr(t *testing.T) {
	got := render(t, `"x=" + @MISSING + "!"`, Context{}, nil)
	if got != "x=!" {
		t.Errorf("got %q", got)
	}
}

func TestRenderMultiValueJoinsWithComma(t *testing.T) {
	ctx := Context{}
	ctx.Bind("genre", []string{"Drama", "Thriller"})
	ctx.Bind("title", []string{"Match Point"})
	got := render(t, `@TITLE + " is " + @GENRE + "."`, ctx, nil)
	if got != "Match Point is Drama, Thriller." {
		t.Errorf("got %q", got)
	}
}

func TestRenderArityOf(t *testing.T) {
	ctx := Context{}
	ctx.Bind("title", []string{"a", "b", "c"})
	got := render(t, `"count: " + arityOf(@TITLE)`, ctx, nil)
	if got != "count: 3" {
		t.Errorf("got %q", got)
	}
}

func TestRenderSingleQuotes(t *testing.T) {
	ctx := Context{}
	ctx.Bind("a", []string{"x"})
	got := render(t, `'<' + @A + '>'`, ctx, nil)
	if got != "<x>" {
		t.Errorf("got %q", got)
	}
}

func TestRenderEscapes(t *testing.T) {
	got := render(t, `"say \"hi\""`, Context{}, nil)
	if got != `say "hi"` {
		t.Errorf("got %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		`"unterminated`,
		`@`,
		`@A @B`,
		`[j<arityOf(@A)] {@A}`,
		`[i?arityOf(@A)] {@A}`,
		`[i<arity(@A)] {@A}`,
		`[i<arityOf(@A) {@A}`,
		`[i<arityOf(@A)] @A`,
		`[i<arityOf(@A)] {@A`,
		`arityOf @A`,
		`@A[$i$`,
		`%`,
	}
	for _, src := range bad {
		if _, err := ParseTemplate(src); err == nil {
			t.Errorf("ParseTemplate(%q) accepted", src)
		}
	}
}

func TestParseDefineErrors(t *testing.T) {
	bad := []string{
		"",
		"MACRO x as y",
		"DEFINE",
		"DEFINE X",
		"DEFINE X y z",
		`DEFINE X as`,
	}
	for _, src := range bad {
		if _, _, err := ParseDefine(src); err == nil {
			t.Errorf("ParseDefine(%q) accepted", src)
		}
	}
}

func TestUnknownMacroErrors(t *testing.T) {
	tpl, err := ParseTemplate(`"x " + NOPE`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Render(Context{}, Macros{}); err == nil {
		t.Error("unknown macro rendered")
	}
}

func TestIndexedOutsideLoopErrors(t *testing.T) {
	tpl, err := ParseTemplate(`@A[$i$]`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{}
	ctx.Bind("a", []string{"x"})
	if _, err := tpl.Render(ctx, nil); err == nil {
		t.Error("indexed ref outside loop rendered")
	}
}

func TestMacroRecursionLimit(t *testing.T) {
	self, err := ParseTemplate(`"x" + SELF`)
	if err != nil {
		t.Fatal(err)
	}
	macros := Macros{"SELF": self}
	if _, err := self.Render(Context{}, macros); err == nil {
		t.Error("infinite macro recursion not caught")
	} else if !strings.Contains(err.Error(), "recursion") {
		t.Errorf("error = %v", err)
	}
}

func TestTemplateSource(t *testing.T) {
	src := `"a" + @B`
	tpl, err := ParseTemplate(src)
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Source() != src {
		t.Errorf("Source = %q", tpl.Source())
	}
}

func TestRenderStringFunctions(t *testing.T) {
	ctx := Context{}
	ctx.Bind("name", []string{"Woody Allen"})
	got := render(t, `upper(@NAME) + " / " + lower(@NAME)`, ctx, nil)
	if got != "WOODY ALLEN / woody allen" {
		t.Errorf("got %q", got)
	}
}

func TestRenderIndexedFunction(t *testing.T) {
	def := `DEFINE L as [i<arityOf(@X)] {upper(@X[$i$]) + ", "} [i=arityOf(@X)] {upper(@X[$i$]) + "."}`
	name, tpl, err := ParseDefine(def)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{}
	ctx.Bind("x", []string{"ab", "cd"})
	got := render(t, "L", ctx, Macros{name: tpl})
	if got != "AB, CD." {
		t.Errorf("got %q", got)
	}
}

func TestFunctionVsMacroName(t *testing.T) {
	// A bare word UPPER (no parenthesis) stays a macro reference.
	up, err := ParseTemplate(`"x"`)
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, `UPPER`, Context{}, Macros{"UPPER": up})
	if got != "x" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionParseErrors(t *testing.T) {
	for _, src := range []string{
		`upper @A`,
		`upper(@A`,
		`upper(@A[$j$])`,
		`upper(nope)`,
	} {
		if _, err := ParseTemplate(src); err == nil {
			t.Errorf("ParseTemplate(%q) accepted", src)
		}
	}
}
