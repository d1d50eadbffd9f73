package salientpp

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBenchModule vets and tests the benchmark module. bench/ is its own Go
// module (its go.mod points salientpp at this checkout), so `go test ./...`
// at the root never reaches it; this test runs `go -C bench vet ./...` and
// `go -C bench test ./...` with the toolchain running the tests and fails
// with their output.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench module's test suite")
	}
	// The child go commands are invisible to go test's result cache; stat
	// every bench source so editing one invalidates a cached pass.
	if err := filepath.WalkDir("bench", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && name == "out" {
			return filepath.SkipDir
		} else if strings.HasSuffix(name, ".go") || name == "go.mod" {
			_, err = os.Stat(p)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, append([]string{"-C", "bench"}, args...)...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go -C bench %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
