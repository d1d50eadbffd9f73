package sample

import "testing"

// validMFG builds a minimal consistent 2-layer MFG by hand.
func validMFG() *MFG {
	// Layer 1 (widest): 2 dst {7, 9}, inputs {7, 9, 4}; dst 0 samples 4
	// and 9, dst 1 samples 4.
	b0 := &Block{
		NumDst:   2,
		InputIDs: []int32{7, 9, 4},
		RowPtr:   []int32{0, 2, 3},
		Col:      []int32{2, 1, 2},
	}
	// Layer 2: 1 dst {7}, inputs {7, 9}; dst samples 9.
	b1 := &Block{
		NumDst:   1,
		InputIDs: []int32{7, 9},
		RowPtr:   []int32{0, 1},
		Col:      []int32{1},
	}
	return &MFG{Blocks: []*Block{b0, b1}, Seeds: []int32{7}}
}

func TestMFGValidateAcceptsConsistent(t *testing.T) {
	if err := validMFG().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMFGValidateRejectsBadRowPtr(t *testing.T) {
	m := validMFG()
	m.Blocks[0].RowPtr = []int32{0, 3} // wrong length for NumDst=2
	if m.Validate() == nil {
		t.Fatal("bad RowPtr length accepted")
	}
	m2 := validMFG()
	m2.Blocks[0].RowPtr[1] = 5 // exceeds final entry -> not monotone chain
	if m2.Validate() == nil {
		t.Fatal("non-monotone RowPtr accepted")
	}
}

func TestMFGValidateRejectsBadCol(t *testing.T) {
	m := validMFG()
	m.Blocks[0].Col[0] = 99
	if m.Validate() == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestMFGValidateRejectsBrokenChain(t *testing.T) {
	m := validMFG()
	// Block 1's inputs must equal block 0's destination prefix {7, 9};
	// changing them to {7, 4} breaks the chain.
	m.Blocks[1].InputIDs[1] = 4
	if m.Validate() == nil {
		t.Fatal("broken dst/input chain accepted")
	}
}

func TestMFGValidateRejectsSeedMismatch(t *testing.T) {
	m := validMFG()
	m.Seeds = []int32{9}
	if m.Validate() == nil {
		t.Fatal("seed mismatch accepted")
	}
	m2 := validMFG()
	m2.Seeds = []int32{7, 9}
	if m2.Validate() == nil {
		t.Fatal("seed count mismatch accepted")
	}
}

func TestMFGAccessors(t *testing.T) {
	m := validMFG()
	if len(m.Blocks) != 2 {
		t.Fatal("len(m.Blocks)")
	}
	if m.TotalEdges() != 4 {
		t.Fatalf("TotalEdges=%d want 4", m.TotalEdges())
	}
	in := m.InputIDs()
	if len(in) != 3 || in[0] != 7 {
		t.Fatalf("InputIDs=%v", in)
	}
	empty := &MFG{Seeds: []int32{1, 2}}
	if len(empty.InputIDs()) != 2 {
		t.Fatal("blockless MFG should fall back to seeds")
	}
}

func TestSampleEmptySeeds(t *testing.T) {
	g := testGraph(t)
	s, _ := NewSampler(g, []int{3, 3})
	m := s.NewWorker(nil).Sample(nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.InputIDs()) != 0 || m.TotalEdges() != 0 {
		t.Fatal("empty seed sample must be empty")
	}
	for _, b := range m.Blocks {
		if b.NumDst != 0 || len(b.Col) != 0 {
			t.Fatal("empty blocks expected")
		}
	}
}
