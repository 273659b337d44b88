//go:build !race

package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
)

// compactSlackPerChange is what TestCompactHoldsEachFileOnce allows a
// compaction to allocate per change on top of its two files: the deltas read
// and decoded, the fold, the patch's postings, the rows handed to it. It was
// 1.2 KiB when the merge came to read the base into its own output buffer and
// the index to be patched as bytes.
const compactSlackPerChange = 2 << 10

// TestCompactHoldsEachFileOnce pins what BenchmarkCompact's compaction
// allocates — the chain merged, the base generation's index patched, both
// written — below the base snapshot plus the base's index plus
// compactSlackPerChange per change of the chain: a second copy of either file,
// or the index decoded into an invidx.Index, fails here. The race detector
// allocates on its own, so the test is not built under it.
func TestCompactHoldsEachFileOnce(t *testing.T) {
	template, d := compactChain(t)
	s, dir := openChainCopy(t, template)
	defer s.Close()
	changes := d.Changes()
	for g := uint64(2); g <= 8; g++ {
		path := filepath.Join(dir, deltaName(g))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := DecodeDelta(path, raw)
		if err != nil {
			t.Fatal(err)
		}
		changes += delta.Changes()
	}
	files := int64(0)
	for _, name := range []string{snapshotName(1), IndexSnapshotName(1)} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files += info.Size()
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compactOnce(t, s, dir, d)
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	budget := files + int64(changes)*compactSlackPerChange
	t.Logf("%d KiB allocated: the files are %d KiB, the chain %d changes; budget %d KiB", allocated>>10, files>>10, changes, budget>>10)
	if allocated > budget {
		t.Errorf("a compaction allocated %d KiB, above its two files' %d KiB and %d changes' slack (%d KiB)", allocated>>10, files>>10, changes, budget>>10)
	}
}
