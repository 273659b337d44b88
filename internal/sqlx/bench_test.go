package sqlx

import (
	"fmt"
	"testing"

	"precis/internal/storage"
)

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	db := storage.NewDatabase("bench")
	rel := db.MustCreateRelation(storage.MustSchema("R", "id", storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "k", Type: storage.TypeInt}, storage.Column{Name: "s", Type: storage.TypeString}))
	for i := 0; i < rows; i++ {
		if _, err := db.Insert("R", storage.Int(int64(i)), storage.Int(int64(i%100)), storage.String(fmt.Sprintf("row %d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := rel.CreateIndex("k"); err != nil {
		b.Fatal(err)
	}
	return NewEngine(db)
}

func BenchmarkExecIndexed(b *testing.B) {
	e := benchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := query(b, e, []string{"id"}, "R", eq(col("k"), storage.Int(int64(i%100))), -1)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkExecScan(b *testing.B) {
	e := benchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(b, e, []string{"id"}, "R", eq(col("s"), storage.String("row 9999")), 5)
	}
}
