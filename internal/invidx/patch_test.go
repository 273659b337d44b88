package invidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"precis/internal/storage"
)

// patchCall is one AddTuple or RemoveTuple, made on a Patch and, for the
// oracle, on the decoded Index.
type patchCall struct {
	rel string
	t   storage.Tuple
	add bool
}

// decodeApplyEncode is what the patch replaces: decode raw, apply calls,
// encode stamped gen.
func decodeApplyEncode(raw []byte, db *storage.Database, calls []patchCall, gen uint64) ([]byte, uint64, error) {
	ix, stamp, err := DecodeSnapshot(raw, db)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range calls {
		if c.add {
			ix.AddTuple(c.rel, c.t)
		} else {
			ix.RemoveTuple(c.rel, c.t)
		}
	}
	return ix.EncodeSnapshot(gen), stamp, nil
}

func patchOf(raw []byte, db *storage.Database, calls []patchCall, gen uint64) ([]byte, uint64, error) {
	p := NewPatch(db)
	for _, c := range calls {
		if c.add {
			p.AddTuple(c.rel, c.t)
		} else {
			p.RemoveTuple(c.rel, c.t)
		}
	}
	return p.Apply(bytes.NewReader(raw), len(raw), gen)
}

// patchValue is diffValue with, now and then, a word no base value holds:
// a token the patch adds.
func patchValue(r *rand.Rand) storage.Value {
	v := diffValue(r)
	if r.Intn(4) == 0 {
		return storage.String(fmt.Sprintf("%s new%d", v.AsString(), r.Intn(6)))
	}
	return v
}

// TestIndexPatchMatchesDecodeApplyEncode: on seeded indexes and edit sets —
// deletes that empty lists and tokens, updates, inserts at either end of a
// list and in its gaps, tokens no base value holds, a posting removed and
// added back and the other way round, an empty base and everything deleted —
// the patch writes the bytes decoding, applying and encoding writes.
func TestIndexPatchMatchesDecodeApplyEncode(t *testing.T) {
	rels := []string{"R", "S"}
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := diffDB(t)
		values := func(rel string) []storage.Value {
			if rel == "R" {
				return []storage.Value{patchValue(r), storage.Int(r.Int63n(9)), patchValue(r)}
			}
			return []storage.Value{patchValue(r)}
		}
		live := map[storage.TupleID]patchCall{}
		id := storage.TupleID(1 + r.Intn(4)) // room below the lowest id
		for i, n := 0, r.Intn(40); i < n; i++ {
			rel := rels[r.Intn(2)]
			vals := values(rel)
			if err := db.InsertWithID(rel, id, vals...); err != nil {
				t.Fatal(err)
			}
			live[id] = patchCall{rel: rel, t: storage.Tuple{ID: id, Values: vals}}
			id += storage.TupleID(1 + r.Intn(3)) // gaps mid-list
		}
		raw := New(db).EncodeSnapshot(uint64(seed))

		var calls []patchCall
		anyLive := func() (patchCall, bool) {
			for _, c := range live {
				return c, true
			}
			return patchCall{}, false
		}
		remove := func(c patchCall) {
			calls = append(calls, patchCall{rel: c.rel, t: c.t})
			delete(live, c.t.ID)
		}
		add := func(rel string, id storage.TupleID) {
			c := patchCall{rel: rel, t: storage.Tuple{ID: id, Values: values(rel)}, add: true}
			calls = append(calls, c)
			live[id] = c
		}
		free := func(lo, hi storage.TupleID) storage.TupleID { // an id in [lo, hi] nobody holds, or 0
			for k := 0; k < 8 && lo <= hi; k++ {
				if id := lo + storage.TupleID(r.Int63n(int64(hi-lo+1))); live[id].t.ID == 0 {
					return id
				}
			}
			return 0
		}
		if seed%10 == 0 {
			for _, c := range live {
				remove(c)
			}
		}
		for i, n := 0, r.Intn(30); i < n; i++ {
			c, ok := anyLive()
			switch op := r.Intn(7); {
			case op == 0 && ok: // delete
				remove(c)
			case op == 1 && ok: // update in place
				remove(c)
				add(c.rel, c.t.ID)
			case op == 2 && ok: // removed and added back, or added again
				remove(c)
				calls = append(calls, patchCall{rel: c.rel, t: c.t, add: true})
				live[c.t.ID] = c
				if r.Intn(2) == 0 {
					calls = append(calls, patchCall{rel: c.rel, t: c.t, add: true})
				}
			case op == 3: // at the low end
				if id := free(1, 4); id != 0 {
					add(rels[r.Intn(2)], id)
				}
			case op == 4: // in a gap
				if id := free(1, id); id != 0 {
					add(rels[r.Intn(2)], id)
				}
			default: // at the high end
				add(rels[r.Intn(2)], id)
				id += storage.TupleID(1 + r.Intn(3))
			}
		}

		want, wantStamp, err := decodeApplyEncode(raw, db, calls, uint64(seed)+1)
		if err != nil {
			t.Fatal(err)
		}
		got, stamp, err := patchOf(raw, db, calls, uint64(seed)+1)
		if err != nil {
			t.Fatalf("seed %d: patch refused its base: %v", seed, err)
		}
		if stamp != wantStamp {
			t.Fatalf("seed %d: patch read the stamp %d, decode %d", seed, stamp, wantStamp)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d (%d calls): patched bytes differ from decode-apply-encode (%d vs %d bytes)", seed, len(calls), len(got), len(want))
		}
	}
}

// TestIndexPatchOnFilesNoEngineWrites: a snapshot DecodeSnapshot accepts
// whose tokens are out of EncodeSnapshot's order is refused, not patched; one
// whose varints are longer than they need be is patched, its loose entries
// re-encoded, untouched or not, to the bytes decoding, applying and encoding
// write.
func TestIndexPatchOnFilesNoEngineWrites(t *testing.T) {
	db := diffDB(t)
	raw := snapshotOf([]string{"woody", "allen"}, [][]snapLoc{{{"R", "a", []uint64{1}}}, {{"R", "a", []uint64{1}}}})
	if _, _, err := DecodeSnapshot(raw, db); err != nil {
		t.Fatalf("decode refused the unsorted snapshot: %v", err)
	}
	if _, _, err := patchOf(raw, db, nil, 2); !errors.Is(err, errUnsorted) {
		t.Fatalf("patch gave %v, want errUnsorted", err)
	}

	// "allen" and "woody", each at R.a for tuple 3, the lengths of the
	// first token and the gap of the second padded to two bytes.
	body := []byte(indexMagic + "\x01\x01\x01\x02" +
		"\x85\x00allen\x01\x01R\x01a\x01\x03" +
		"\x05woody\x01\x01R\x01a\x01\x83\x00")
	loose := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, indexCRCTable))
	for _, calls := range [][]patchCall{nil, {{rel: "S", t: storage.Tuple{ID: 4, Values: []storage.Value{storage.String("woody")}}, add: true}}} {
		want, _, err := decodeApplyEncode(loose, db, calls, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := patchOf(loose, db, calls, 2); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d calls: patch gave %v, or bytes other than decode-apply-encode's", len(calls), err)
		}
	}
}

// fuzzCorpus returns the inputs checked in for a fuzz target of this package.
func fuzzCorpus(tb testing.TB, target string) [][]byte {
	dir := filepath.Join("testdata", "fuzz", target)
	files, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(string(b), "go test fuzz v1\n[]byte("), ")\n")
		raw, err := strconv.Unquote(quoted)
		if err != nil {
			tb.Fatalf("%s: %v", f.Name(), err)
		}
		out = append(out, []byte(raw))
	}
	return out
}

// FuzzIndexPatch runs a fixed set of edits over fuzzed snapshots, seeded from
// FuzzIndexSnapshotDecode's corpus: the patch refuses wherever DecodeSnapshot
// refuses, refuses besides only a snapshot whose tokens are out of order, and
// otherwise writes the bytes decoding, applying the edits and encoding writes.
func FuzzIndexPatch(f *testing.F) {
	db := diffDB(f)
	if err := db.InsertWithID("R", 1, storage.String("Woody Allen"), storage.Int(1), storage.String("film festival")); err != nil {
		f.Fatal(err)
	}
	if err := db.InsertWithID("S", 2, storage.String("aaa point")); err != nil {
		f.Fatal(err)
	}
	f.Add(New(db).EncodeSnapshot(7))
	for _, raw := range fuzzCorpus(f, "FuzzIndexSnapshotDecode") {
		f.Add(raw)
	}
	tuple := func(rel string, id storage.TupleID, vals ...string) storage.Tuple {
		t := storage.Tuple{ID: id}
		for _, v := range vals {
			t.Values = append(t.Values, storage.String(v))
		}
		return t
	}
	calls := []patchCall{
		{rel: "R", t: tuple("R", 1, "Woody Allen", "", "film festival")},
		{rel: "R", t: tuple("R", 1, "allen", "", "woody zz"), add: true},
		{rel: "S", t: tuple("S", 2, "aaa point")},
		{rel: "S", t: tuple("S", 5, "Woody city"), add: true},
		{rel: "R", t: tuple("R", 1<<20, "the night of", "", ""), add: true},
	}
	for i := range calls {
		if calls[i].rel == "R" {
			calls[i].t.Values[1] = storage.Int(1)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		want, wantStamp, wantErr := decodeApplyEncode(raw, db, calls, 9)
		got, stamp, err := patchOf(raw, db, calls, 9)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("patch accepts a snapshot DecodeSnapshot refuses (%v)", wantErr)
			}
		case err != nil:
			if !errors.Is(err, errUnsorted) {
				t.Fatalf("patch refuses a snapshot DecodeSnapshot accepts: %v", err)
			}
		case stamp != wantStamp || !bytes.Equal(got, want):
			t.Fatalf("patch differs from decode-apply-encode: stamp %d vs %d, %d vs %d bytes", stamp, wantStamp, len(got), len(want))
		}
	})
}
