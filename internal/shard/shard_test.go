package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"precis/internal/invidx"
	"precis/internal/storage"
)

// testDB builds a two-relation database with n tuples in each.
func testDB(t *testing.T, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase("test")
	db.MustCreateRelation(storage.MustSchema("A", "id",
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "name", Type: storage.TypeString}))
	db.MustCreateRelation(storage.MustSchema("B", "id",
		storage.Column{Name: "id", Type: storage.TypeInt},
		storage.Column{Name: "aid", Type: storage.TypeInt}))
	if err := db.AddForeignKey(storage.ForeignKey{FromRelation: "B", FromColumn: "aid", ToRelation: "A", ToColumn: "id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("A", storage.Int(int64(i)), storage.String("alpha beta")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("B", storage.Int(int64(i)), storage.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestHashPartitioner(t *testing.T) {
	if _, err := NewHashPartitioner(0); err == nil {
		t.Fatal("shard count 0 accepted")
	}
	p, err := NewHashPartitioner(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "hash" || p.Shards() != 4 {
		t.Fatalf("got %s/%d", p.Name(), p.Shards())
	}
	for id := storage.TupleID(1); id < 100; id++ {
		if got, want := p.Owner(id), int(uint64(id)%4); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", id, got, want)
		}
	}
	off, stride := p.Stride(3)
	if off != 3 || stride != 4 {
		t.Fatalf("Stride(3) = (%d,%d), want (3,4)", off, stride)
	}
}

func TestRangePartitioner(t *testing.T) {
	if _, err := NewRangePartitioner([]storage.TupleID{5, 5}); err == nil {
		t.Fatal("non-increasing bounds accepted")
	}
	if _, err := NewRangePartitioner([]storage.TupleID{0}); err == nil {
		t.Fatal("non-positive bound accepted")
	}
	p, err := NewRangePartitioner([]storage.TupleID{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", p.Shards())
	}
	cases := map[storage.TupleID]int{1: 0, 9: 0, 10: 1, 19: 1, 20: 2, 1000: 2}
	for id, want := range cases {
		if got := p.Owner(id); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestEqualCountBounds(t *testing.T) {
	db := testDB(t, 50) // ids 1..100
	bounds := EqualCountBounds(db, 4)
	if len(bounds) != 3 {
		t.Fatalf("got %d bounds, want 3", len(bounds))
	}
	p, err := NewRangePartitioner(bounds)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, rel := range db.RelationNames() {
		db.Relation(rel).Scan(func(tu storage.Tuple) bool {
			counts[p.Owner(tu.ID)]++
			return true
		})
	}
	for i, c := range counts {
		if c < 20 || c > 30 {
			t.Fatalf("shard %d holds %d of 100 tuples; want ~25 (all: %v)", i, c, counts)
		}
	}
	// Empty database: trivial strictly-increasing split.
	empty := storage.NewDatabase("empty")
	if _, err := NewRangePartitioner(EqualCountBounds(empty, 4)); err != nil {
		t.Fatalf("empty-db bounds invalid: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%t err=%v, want false/nil", ok, err)
	}
	rp, _ := NewRangePartitioner([]storage.TupleID{7, 19})
	for _, p := range []Partitioner{mustHash(t, 3), rp} {
		if err := SaveManifest(dir, ManifestFor(p)); err != nil {
			t.Fatal(err)
		}
		m, ok, err := LoadManifest(dir)
		if err != nil || !ok {
			t.Fatalf("load: ok=%t err=%v", ok, err)
		}
		back, err := m.Build()
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != p.Name() || back.Shards() != p.Shards() {
			t.Fatalf("round trip changed %s/%d to %s/%d", p.Name(), p.Shards(), back.Name(), back.Shards())
		}
		for id := storage.TupleID(1); id < 50; id++ {
			if back.Owner(id) != p.Owner(id) {
				t.Fatalf("%s: Owner(%d) changed across round trip", p.Name(), id)
			}
		}
	}
	// Corrupt manifest → error, not silent fresh start.
	if err := os.WriteFile(filepath.Join(dir, topologyFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt manifest: %v", err)
	}
}

func mustHash(t *testing.T, n int) *HashPartitioner {
	t.Helper()
	p, err := NewHashPartitioner(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionDisjointCover(t *testing.T) {
	db := testDB(t, 25)
	for _, p := range []Partitioner{mustHash(t, 3), rangeOver(t, db, 3)} {
		parts, err := Partition(db, p)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[storage.TupleID]int)
		total := 0
		for i, sdb := range parts {
			if got := sdb.NextTupleID(); p.Name() == "range" && got != db.NextTupleID() {
				t.Fatalf("%s shard %d NextTupleID %d, want %d", p.Name(), i, got, db.NextTupleID())
			}
			if sdb.NumRelations() != db.NumRelations() {
				t.Fatalf("shard %d has %d relations, want %d", i, sdb.NumRelations(), db.NumRelations())
			}
			for _, rel := range sdb.RelationNames() {
				sdb.Relation(rel).Scan(func(tu storage.Tuple) bool {
					if prev, dup := seen[tu.ID]; dup {
						t.Fatalf("tuple %d on shards %d and %d", tu.ID, prev, i)
					}
					seen[tu.ID] = i
					if own := p.Owner(tu.ID); own != i {
						t.Fatalf("tuple %d on shard %d but owned by %d", tu.ID, i, own)
					}
					total++
					return true
				})
			}
		}
		if total != db.TotalTuples() {
			t.Fatalf("%s: shards hold %d tuples, original holds %d", p.Name(), total, db.TotalTuples())
		}
	}
}

func rangeOver(t *testing.T, db *storage.Database, n int) *RangePartitioner {
	t.Helper()
	p, err := NewRangePartitioner(EqualCountBounds(db, n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPartitionStride: hash shards allocate only ids they own.
func TestPartitionStride(t *testing.T) {
	db := testDB(t, 10)
	p := mustHash(t, 4)
	parts, err := Partition(db, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, sdb := range parts {
		id, err := sdb.Insert("A", storage.Int(999), storage.String("x"))
		if err != nil {
			t.Fatal(err)
		}
		if own := p.Owner(id); own != i {
			t.Fatalf("shard %d allocated id %d owned by shard %d", i, id, own)
		}
		if id < db.NextTupleID() {
			t.Fatalf("shard %d allocated id %d below the replicated watermark %d", i, id, db.NextTupleID())
		}
	}
}

// TestMergeOccurrences: scattering a lookup over partitioned indexes and
// merging must equal the single-index lookup, byte for byte.
func TestMergeOccurrences(t *testing.T) {
	db := testDB(t, 40)
	want := invidx.New(db).LookupExpanded("alpha")
	if len(want) == 0 {
		t.Fatal("test term missing from index")
	}
	for _, n := range []int{1, 2, 4, 8} {
		parts, err := Partition(db, mustHash(t, n))
		if err != nil {
			t.Fatal(err)
		}
		per := make([][]invidx.Occurrence, n)
		for i, sdb := range parts {
			per[i] = invidx.New(sdb).LookupExpanded("alpha")
		}
		if got := MergeOccurrences(per); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: merged occurrences differ\n got %+v\nwant %+v", n, got, want)
		}
	}
	// A term that matches nothing merges to the same empty result.
	if got := MergeOccurrences([][]invidx.Occurrence{nil, nil}); len(got) != 0 {
		t.Fatalf("empty parts merged to %+v", got)
	}
}
