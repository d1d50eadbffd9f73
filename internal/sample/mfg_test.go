package sample

import (
	"fmt"
	"testing"
)

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
	if err := validateMFG(validMFG()); err != nil {
		t.Fatal(err)
	}
}

func TestMFGValidateRejectsBadRowPtr(t *testing.T) {
	m := validMFG()
	m.Blocks[0].RowPtr = []int32{0, 3} // wrong length for NumDst=2
	if validateMFG(m) == nil {
		t.Fatal("bad RowPtr length accepted")
	}
	m2 := validMFG()
	m2.Blocks[0].RowPtr[1] = 5 // exceeds final entry -> not monotone chain
	if validateMFG(m2) == nil {
		t.Fatal("non-monotone RowPtr accepted")
	}
}

func TestMFGValidateRejectsBadCol(t *testing.T) {
	m := validMFG()
	m.Blocks[0].Col[0] = 99
	if validateMFG(m) == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestMFGValidateRejectsBrokenChain(t *testing.T) {
	m := validMFG()
	// Block 1's inputs must equal block 0's destination prefix {7, 9};
	// changing them to {7, 4} breaks the chain.
	m.Blocks[1].InputIDs[1] = 4
	if validateMFG(m) == nil {
		t.Fatal("broken dst/input chain accepted")
	}
}

func TestMFGValidateRejectsSeedMismatch(t *testing.T) {
	m := validMFG()
	m.Seeds = []int32{9}
	if validateMFG(m) == nil {
		t.Fatal("seed mismatch accepted")
	}
	m2 := validMFG()
	m2.Seeds = []int32{7, 9}
	if validateMFG(m2) == nil {
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
	if err := validateMFG(m); err != nil {
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

// validateMFG checks the structural invariants connecting blocks: row pointers
// are monotone and complete, column indices are in range, destination
// prefixes chain correctly (block i's input set equals block i+1's
// destination set extended with its sampled neighbors), and the final
// block's destinations are the seeds.
func validateMFG(m *MFG) error {
	for li, b := range m.Blocks {
		if b.NumDst > len(b.InputIDs) {
			return fmt.Errorf("mfg: block %d has NumDst %d > inputs %d", li, b.NumDst, len(b.InputIDs))
		}
		if len(b.RowPtr) != b.NumDst+1 {
			return fmt.Errorf("mfg: block %d RowPtr length %d, want %d", li, len(b.RowPtr), b.NumDst+1)
		}
		if b.RowPtr[0] != 0 || int(b.RowPtr[b.NumDst]) != len(b.Col) {
			return fmt.Errorf("mfg: block %d RowPtr endpoints invalid", li)
		}
		for i := 0; i < b.NumDst; i++ {
			if b.RowPtr[i+1] < b.RowPtr[i] {
				return fmt.Errorf("mfg: block %d RowPtr not monotone at %d", li, i)
			}
		}
		for _, c := range b.Col {
			if c < 0 || int(c) >= len(b.InputIDs) {
				return fmt.Errorf("mfg: block %d column index %d out of range", li, c)
			}
		}
		if li+1 < len(m.Blocks) {
			next := m.Blocks[li+1]
			// next's input set becomes this block's destination set.
			if b.NumDst != len(next.InputIDs) {
				return fmt.Errorf("mfg: block %d NumDst %d != block %d inputs %d", li, b.NumDst, li+1, len(next.InputIDs))
			}
			for i, id := range next.InputIDs {
				if b.InputIDs[i] != id {
					return fmt.Errorf("mfg: block %d dst[%d]=%d mismatches block %d input %d", li, i, b.InputIDs[i], li+1, id)
				}
			}
		}
	}
	if len(m.Blocks) > 0 {
		last := m.Blocks[len(m.Blocks)-1]
		if last.NumDst != len(m.Seeds) {
			return fmt.Errorf("mfg: final block NumDst %d != %d seeds", last.NumDst, len(m.Seeds))
		}
		for i, s := range m.Seeds {
			if last.InputIDs[i] != s {
				return fmt.Errorf("mfg: seed %d is %d in final block, want %d", i, last.InputIDs[i], s)
			}
		}
	}
	return nil
}
