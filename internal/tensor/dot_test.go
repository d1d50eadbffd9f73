package tensor

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestPortableDotKernelDoesNotFuse cross-compiles the package for arm64,
// where the compiler fuses a float32 multiply feeding an add into one FMA
// unless an explicit conversion rounds the product, and fails if the
// portable dot kernel's text contains a fused multiply-add. A fused kernel
// rounds each term once instead of twice, so its results would differ from
// the AVX2 kernel's and from every other architecture's.
func TestPortableDotKernelDoesNotFuse(t *testing.T) {
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
	text := funcText(string(out), "dotBlock4x4Go")
	if !strings.Contains(text, "FMULS") {
		t.Fatalf("no FMULS in the arm64 text of dotBlock4x4Go; the listing format changed?\n%s", text)
	}
	for _, op := range []string{"FMADDS", "FMSUBS", "FNMADDS", "FNMSUBS"} {
		if regexp.MustCompile(`\s` + op + `\s`).MatchString(text) {
			t.Errorf("arm64 dotBlock4x4Go contains %s: a product is fused into its sum", op)
		}
	}
}

// funcText returns the instruction lines of fn in a -gcflags=-S listing:
// from its STEXT header to the next unindented line.
func funcText(listing, fn string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(listing, "\n") {
		switch {
		case strings.Contains(line, "."+fn+" STEXT"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			b.WriteString(line)
			b.WriteByte('\n')
		default:
			in = false
		}
	}
	return b.String()
}
