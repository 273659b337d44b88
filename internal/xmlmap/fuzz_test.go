package xmlmap

import (
	"strings"
	"testing"

	"precis/internal/storage"
)

// FuzzShred checks the XML mapper never panics and that every accepted
// document yields a referentially intact database with a valid graph.
func FuzzShred(f *testing.F) {
	f.Add(`<a><b x="1">t</b><b>u</b></a>`)
	f.Add(`<r><p><q>deep</q></p></r>`)
	f.Add(`<a/>`)
	f.Add(`<a><a>nested same name</a></a>`)
	f.Add(`not xml`)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 4096 {
			return
		}
		res, err := Shred(strings.NewReader(doc))
		if err != nil {
			return
		}
		if v := storage.CheckIntegrity(res.DB); len(v) != 0 {
			t.Fatalf("doc %q: integrity violations %v", doc, v)
		}
		if err := res.Graph.Validate(res.DB); err != nil {
			t.Fatalf("doc %q: graph invalid: %v", doc, err)
		}
	})
}
