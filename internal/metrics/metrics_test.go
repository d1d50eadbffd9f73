package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean=%v", g)
	}
	if g := GeoMean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean skipping zero = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
		0.01234: "0.0123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v)=%q want %q", in, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 0.5)
	tb.AddRow("long-name-entry", 123.0)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "long-name-entry") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: padded rows have identical rendered width.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}
