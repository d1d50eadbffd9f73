// Package fmacheck holds the test check that packages compile for arm64
// without a fused multiply-add. On arm64 the compiler fuses a float
// multiply feeding an add into one FMA unless an explicit conversion
// rounds the product; a fused product is rounded once instead of twice, so
// the same seed would compute different results on arm64 than on amd64,
// where Go never fuses.
package fmacheck

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var fused = regexp.MustCompile(`\s(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\s`)

// Check cross-compiles pkgs (import paths or directories relative to the
// test's package) for arm64 and fails t for every function whose text
// contains a fused multiply-add. Each op in mulOps (FMULS, FMULD) must
// appear in the listing, so a change in the listing format fails rather
// than passing vacuously. Check skips under -short and without a go
// command.
func Check(t *testing.T, mulOps []string, pkgs ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("cross-compiles packages for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	cmd := exec.Command(goBin, append([]string{"build", "-gcflags=-S"}, pkgs...)...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	for _, op := range mulOps {
		if !regexp.MustCompile(`\s` + op + `\s`).Match(out) {
			t.Fatalf("no %s in the arm64 listing; the listing format changed?\n%s", op, out)
		}
	}
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if name, _, ok := strings.Cut(line, " STEXT"); ok {
			fn = name
		} else if op := fused.FindString(line); op != "" {
			t.Errorf("arm64 %s contains %s: a product is fused into its sum", fn, strings.TrimSpace(op))
		}
	}
}
