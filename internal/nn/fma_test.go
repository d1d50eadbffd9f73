package nn

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestArm64HasNoFusedMultiplyAdd cross-compiles the package for arm64,
// where the compiler fuses a float multiply feeding an add into one FMA
// unless an explicit conversion rounds the product, and fails if any
// function's text contains a fused multiply-add: a fused optimizer or layer
// update would train different weights on arm64 than on amd64, where Go
// never fuses. The tensor package carries the same check.
func TestArm64HasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`\sFMULD\s`).Match(out) {
		t.Fatalf("no FMULD in the arm64 listing; the listing format changed?\n%s", out)
	}
	fused := regexp.MustCompile(`\s(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\s`)
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if name, _, ok := strings.Cut(line, " STEXT"); ok {
			fn = name
		} else if op := fused.FindString(line); op != "" {
			t.Errorf("arm64 %s contains %s: a product is fused into its sum", fn, strings.TrimSpace(op))
		}
	}
}
