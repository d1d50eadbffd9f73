package sample

import (
	"fmt"
	"sync"
	"testing"

	"salientpp/internal/graph"
	"salientpp/internal/rng"
)

func benchGraph(t testing.TB, n int, seed uint64) *graph.CSR {
	t.Helper()
	g, err := graph.RMAT(graph.DefaultRMAT(n, int64(n)*8, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cloneMFG deep-copies an MFG so it can outlive a Release.
func cloneMFG(m *MFG) *MFG {
	out := &MFG{Seeds: append([]int32(nil), m.Seeds...)}
	for _, b := range m.Blocks {
		out.Blocks = append(out.Blocks, &Block{
			NumDst:   b.NumDst,
			InputIDs: append([]int32(nil), b.InputIDs...),
			RowPtr:   append([]int32(nil), b.RowPtr...),
			Col:      append([]int32(nil), b.Col...),
		})
	}
	return out
}

func sameMFG(a, b *MFG) error {
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("block counts %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if x.NumDst != y.NumDst || len(x.InputIDs) != len(y.InputIDs) || len(x.Col) != len(y.Col) {
			return fmt.Errorf("block %d shape mismatch", i)
		}
		for j := range x.InputIDs {
			if x.InputIDs[j] != y.InputIDs[j] {
				return fmt.Errorf("block %d input %d differs", i, j)
			}
		}
		for j := range x.RowPtr {
			if x.RowPtr[j] != y.RowPtr[j] {
				return fmt.Errorf("block %d rowptr %d differs", i, j)
			}
		}
		for j := range x.Col {
			if x.Col[j] != y.Col[j] {
				return fmt.Errorf("block %d col %d differs", i, j)
			}
		}
	}
	return nil
}

// TestArenaReuseDeterminism verifies that recycling arenas and workers
// through the pools changes nothing about the sampled MFGs: the same RNG
// streams produce bitwise-identical structures across repeated epochs and
// across worker counts.
func TestArenaReuseDeterminism(t *testing.T) {
	g := benchGraph(t, 3000, 11)
	s, err := NewSampler(g, []int{10, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	train := rng.New(1).SampleK(nil, 600, g.NumVertices())
	batches := EpochBatches(train, 64, rng.New(2))

	// Reference epoch, cloned before release.
	var ref []*MFG
	for _, m := range PrepareEpoch(s, batches, rng.New(3), 1) {
		ref = append(ref, cloneMFG(m))
		m.Release()
	}
	// Re-sampling after pool reuse, at several worker counts, must match.
	for _, workers := range []int{1, 2, 4, 8} {
		mfgs := PrepareEpoch(s, batches, rng.New(3), workers)
		for i, m := range mfgs {
			if err := validateMFG(m); err != nil {
				t.Fatalf("workers=%d batch %d: %v", workers, i, err)
			}
			if err := sameMFG(ref[i], m); err != nil {
				t.Fatalf("workers=%d batch %d: %v", workers, i, err)
			}
			m.Release()
		}
	}
}

// TestConcurrentBatchPreparation hammers the shared sampler from many
// goroutines with interleaved acquire/sample/release cycles; run under
// -race in CI it proves the pools introduce no data races and no
// cross-batch buffer aliasing (each goroutine revalidates its MFG against
// a serial resample before releasing).
func TestConcurrentBatchPreparation(t *testing.T) {
	g := benchGraph(t, 2000, 13)
	s, err := NewSampler(g, []int{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	train := rng.New(4).SampleK(nil, 800, g.NumVertices())
	batches := EpochBatches(train, 32, rng.New(5))
	base := rng.New(6)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			check := s.NewWorker(rng.New(0)) // private, unpooled reference
			for rep := 0; rep < 3; rep++ {
				for i := range batches {
					w := s.AcquireWorker(base.Split(uint64(i)))
					m := w.Sample(batches[i])
					if err := validateMFG(m); err != nil {
						errs <- fmt.Errorf("goroutine %d rep %d batch %d: %w", gi, rep, i, err)
						s.ReleaseWorker(w)
						return
					}
					check.SetRNG(base.Split(uint64(i)))
					want := check.Sample(batches[i])
					if err := sameMFG(want, m); err != nil {
						errs <- fmt.Errorf("goroutine %d rep %d batch %d: %w", gi, rep, i, err)
					}
					want.Release()
					m.Release()
					s.ReleaseWorker(w)
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkSample measures one epoch of minibatch preparation at
// increasing worker counts (workers=1 is the serial baseline for the
// speedup criterion); allocations are reported to track the
// allocation-lean goal.
func BenchmarkSample(b *testing.B) {
	g := benchGraph(b, 50000, 7)
	s, err := NewSampler(g, []int{15, 10, 5})
	if err != nil {
		b.Fatal(err)
	}
	train := rng.New(8).SampleK(nil, 5000, g.NumVertices())
	batches := EpochBatches(train, 128, rng.New(9))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mfgs := PrepareEpoch(s, batches, rng.New(10), workers)
				for _, m := range mfgs {
					m.Release()
				}
			}
		})
	}
}
