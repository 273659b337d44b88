package precis_test

import (
	"runtime"
	"testing"

	"precis"
	"precis/internal/dataset"
)

// liveBytesPerTupleBudget is what one tuple of the bundled synthetic dataset
// may cost in live heap once the engine (storage, hash indexes, inverted
// index) is built over it: 10 % above the 225 bytes measured when the
// resident layout was last reworked (32-byte Value, 16-byte slots, id→slot
// table, int-keyed hash indexes, sorted-slice postings; it was 460 before).
// Raise it only with a heap profile that says where the bytes went
// (EXPERIMENTS.md, "Resident memory").
const liveBytesPerTupleBudget = 248

// TestLiveBytesPerTuple pins the resident cost of a tuple so the bytes
// cannot creep back unnoticed. scripts/ci.sh runs it in a non-race step.
func TestLiveBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	db, err := dataset.SyntheticMovies(dataset.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.PaperGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := precis.New(db, g)
	if err != nil {
		t.Fatal(err)
	}
	perTuple := float64(heap()-before) / float64(eng.TotalTuples())
	t.Logf("%d tuples, %.1f live bytes per tuple (budget %d)", eng.TotalTuples(), perTuple, liveBytesPerTupleBudget)
	if perTuple > liveBytesPerTupleBudget {
		t.Errorf("%.1f live bytes per tuple, budget %d", perTuple, liveBytesPerTupleBudget)
	}
	runtime.KeepAlive(eng)
}
