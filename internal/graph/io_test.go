package graph

import (
	"bytes"
	"testing"
)

func TestSerializationRoundTrip(t *testing.T) {
	g, err := RMAT(DefaultRMAT(300, 2000, 21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch after round trip")
	}
	for i := range g.Offsets {
		if g.Offsets[i] != h.Offsets[i] {
			t.Fatal("offsets changed")
		}
	}
	for i := range g.Adj {
		if g.Adj[i] != h.Adj[i] {
			t.Fatal("adjacency changed")
		}
	}
	if h.sorted != g.sorted {
		t.Fatal("sorted flag changed")
	}
}

func TestSerializationEmptyGraph(t *testing.T) {
	g, err := FromEdges(4, nil, BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 4 || h.NumEdges() != 0 {
		t.Fatal("empty graph round trip failed")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a graph at all........"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	g, _ := Ring(20)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadFrom(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}
