// Command mutate runs the mutants listed in scripts/mutants.txt and fails
// unless the tests each names kill it. It copies the module once to a
// temporary directory (hidden directories and nested modules left out) and,
// one mutant at a time, replaces the mutant's source text in its file — the
// text must occur there exactly once — runs go test -run PATTERN PACKAGE on
// the copy, and puts the file back. A mutant is killed when a test fails; one
// that does not build, or fails go test some other way, is refused, since it
// shows nothing about the tests.
//
// The list has one mutant per line, five tab-separated fields: the file (from
// the module root), the exact source text, its replacement, the -run pattern
// and the package. Blank lines and lines starting with # are skipped.
//
//	go run ./scripts/mutate
package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// list is the mutant list, from the module root.
const list = "scripts/mutants.txt"

type mutant struct {
	line                          int
	file, from, to, pattern, pkgs string
}

func main() {
	mutants, err := parse(list)
	if err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp("", "precis-mutate-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)
	if err := copyModule(".", tmp); err != nil {
		fail(err)
	}
	bad := 0
	for _, m := range mutants {
		start := time.Now()
		verdict, err := run(tmp, m)
		if err != nil {
			fail(err)
		}
		if verdict != "killed" {
			bad++
		}
		fmt.Printf("%s:%d %s (%s, %s): %s in %.1fs\n", list, m.line, m.file, m.pattern, m.pkgs, verdict, time.Since(start).Seconds())
	}
	if bad > 0 {
		fail(fmt.Errorf("%d of %d mutants not killed", bad, len(mutants)))
	}
	fmt.Printf("all %d mutants killed\n", len(mutants))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(1)
}

// parse reads the mutant list.
func parse(path string) ([]mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var mutants []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("%s:%d: %d tab-separated fields, want 5", path, n, len(fields))
		}
		mutants = append(mutants, mutant{n, fields[0], fields[1], fields[2], fields[3], fields[4]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(mutants) == 0 {
		return nil, fmt.Errorf("%s lists no mutant", path)
	}
	return mutants, nil
}

// copyModule copies the module at src to dst, leaving out hidden directories
// and nested modules.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		target := filepath.Join(dst, path)
		if !d.IsDir() {
			if !d.Type().IsRegular() {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		}
		if path != src {
			if strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir
			}
		}
		return os.MkdirAll(target, 0o755)
	})
}

// run applies m to the copy at root, runs its tests and restores the file. It
// returns "killed" or what else became of the mutant, and an error only when
// the copy could not be written.
func run(root string, m mutant) (string, error) {
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if n := strings.Count(string(orig), m.from); n != 1 {
		return fmt.Sprintf("REFUSED: the text occurs %d times, want once", n), nil
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(orig), m.from, m.to, 1)), 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "test", "-count=1", "-run", m.pattern, m.pkgs)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		return "", err
	}
	switch {
	case err == nil:
		return "SURVIVED", nil
	case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
		return "REFUSED: the mutant does not build\n" + string(out), nil
	case !strings.Contains(string(out), "--- FAIL") && !strings.Contains(string(out), "panic:"):
		return "REFUSED: go test failed, but no test did\n" + string(out), nil
	}
	return "killed", nil
}
