package nlg

import (
	"fmt"
	"testing"

	"precis/internal/core"
	"precis/internal/dataset"
)

// FuzzParseTemplate checks the template parser never panics, and that
// accepted templates render without panicking against a small context.
func FuzzParseTemplate(f *testing.F) {
	seeds := []string{
		`@DNAME + " was born on " + @BDATE + "."`,
		`[i<arityOf(@T)] {@T[$i$] + ", "} [i=arityOf(@T)] {@T[$i$] + "."}`,
		`upper(@A) + lower(@B[$i$])`,
		`MACRO_NAME + arityOf(@X)`,
		`"\"escaped\"" + 'single'`,
		`[i<arityOf(@A)]`,
		`@`, `{`, `}`, `+`, `[][]`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tpl, err := ParseTemplate(src)
		if err != nil {
			return
		}
		ctx := Context{}
		ctx.Bind("a", []string{"x", "y"})
		ctx.Bind("t", []string{"one", "two", "three"})
		_, _ = tpl.Render(ctx, Macros{})
	})
}

// FuzzParseDefine checks macro definitions never panic.
func FuzzParseDefine(f *testing.F) {
	f.Add(`DEFINE L as [i<arityOf(@X)] {@X[$i$]}`)
	f.Add("DEFINE")
	f.Add("define x as y")
	f.Fuzz(func(t *testing.T, src string) {
		_, _, _ = ParseDefine(src)
	})
}

// FuzzNarrative installs a fuzzed sentence on AUTHOR and NOTE and a fuzzed
// label on WROTE->BOOK and BOOK->PUBLISHER of handBuiltResult's G′, indexed
// and not, and holds the compiled walk to the reference walk: the same bytes,
// or the same error — a template that does not parse, an unknown macro, an
// index outside a loop — with the same text, at every clause cap.
func FuzzNarrative(f *testing.F) {
	seeds := [][2]string{
		// the fixture's and the paper's
		{`@NAME [i=arityOf(@CITY)] {" lives in " + @CITY} "."`, `@NAME + " of " + @CITY + " wrote " + TITLES`},
		{`@BLANK + " " + @TEXT`, `@TITLE + " (" + @YEAR + ") came out at " + upper(@NAME) + " in " + arityOf(@CITY) + " city " + @CITY + "."`},
		{`@DNAME [i=arityOf(@BDATE)] {" was born on " + @BDATE} [i=arityOf(@BLOCATION)] {" in " + @BLOCATION} "."`, `"As a director, " + @DNAME + "'s work includes " + MOVIE_LIST`},
		// names in two relations, in none, and past column 12
		{`@name + "/" + @CITY + "/" + @city`, `@NAME + " at " + @PID + " and " + @AID + " " + NOTES`},
		{`@STARS + @NOPE + "!"`, `"Reviews: " + @STARS + lower(@MISSING)`},
		{`@TEXT + " p." + @PAGE + @FILLER11 + @BID`, `[i<arityOf(@TITLE)] {@TITLE[$i$] + lower(@TITLE[$i$]) + "; "} [i=arityOf(@TITLE)] {upper(@YEAR[$i$])}`},
		// guards over unbound and all-NULL attributes, and errors
		{`[i<arityOf(@CITY)] {@CITY[$i$]} [i=arityOf(@NOPE)] {"never"}`, `[i=arityOf(@PAGE)] {@TEXT[$i$] + @PAGE}`},
		{`@TITLE[$i$]`, `"x" + NO_SUCH_MACRO`},
		{`"unterminated`, `@`},
		{``, `@TITLE`}, {`"x"`, ` `},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	r := handBuiltRenderer(f)
	for _, def := range dataset.StandardMacros() {
		if err := r.DefineMacro(def); err != nil {
			f.Fatal(err)
		}
	}
	indexed, occs := handBuiltResult(f, true)
	scanned, _ := handBuiltResult(f, false)
	f.Fuzz(func(t *testing.T, sentence, label string) {
		for _, rd := range []*core.ResultDatabase{indexed, scanned} {
			g := rd.Schema.Graph
			g.Relation("AUTHOR").Sentence, g.Relation("NOTE").Sentence = sentence, sentence
			for _, e := range g.JoinEdges() {
				if e.Key() == "WROTE->BOOK(bid=bid)" || e.Key() == "BOOK->PUBLISHER(pid=pid)" {
					e.Label = label
				}
			}
			for _, maxClauses := range []int{1, 3, 64} {
				r.MaxClauses = maxClauses
				want, wantErr := refNarrative(r, rd, occs)
				got, gotErr := r.Narrative(rd, occs)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("MaxClauses=%d, sentence %q, label %q: error %v, reference error %v\n--- got ---\n%s\n--- want ---\n%s",
						maxClauses, sentence, label, gotErr, wantErr, got, want)
				}
			}
		}
	})
}
