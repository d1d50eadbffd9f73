package dist

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"salientpp/internal/cache"
	"salientpp/internal/tensor"
)

// GatherStats classifies the feature accesses of one gather round. Every
// id lands in exactly one category, so Local + CacheHits + RemoteFetch +
// Missing equals the number of ids: local rows are read from this rank's
// shard, cache hits read a replicated row, and remote fetches cost network
// communication.
type GatherStats struct {
	Local     int
	CacheHits int
	// RemoteFetch counts remote accesses: ids neither local nor cached.
	// Gather requests every one of them on the wire; the training stream
	// serves Reused of them from the previous round instead, so its rows
	// on the wire are RemoteFetch − Reused.
	RemoteFetch int
	// Reused counts the remote accesses a GatherNext round copied out of
	// the round pending when it was pushed, which held the same ids — as
	// requests, inheritances or cache hits (always 0 outside the training
	// stream).
	Reused int
	// Missing counts rows GatherLocal could not satisfy from the local
	// shard or cache and zero-filled instead (always 0 for Gather, which
	// fetches them remotely). A degraded serving round reports its
	// accuracy cost here.
	Missing int
}

// Store is one rank's partitioned feature store: the local shard, the
// current cache epoch of remote rows, and the communicator over which
// remote rows are fetched (§4.2).
//
// Remote rows move in framed all-to-all exchanges. The frame a rank sends
// peer p is [rows answering p's previous request list][this rank's next
// request list for p]; the receiver splits it at the row count it asked p
// for, so no separate count collective exists. The training stream
// (GatherNext/GatherFlush) sends each round's request ids with the
// previous round's rows, so an R-round epoch costs R+1 collectives; a
// one-shot Gather is a one-round stream, an ids-only frame then a
// rows-only frame. Between the collective that delivers a peer's ids and
// the next one, the owner reads the requested rows out of its shard into
// that peer's outgoing frame. The stream also never asks for a row twice in a
// row: a round's remote ids that the pending round held — requested,
// inherited or served from the cache — are copied out of the pending
// round's matrix once it completes, so owners see shorter request lists
// and nothing else changes.
//
// The cache is versioned: gathers read whichever cache.Epoch was current
// when they started (one atomic pointer load per gather), and InstallEpoch
// swaps in a new epoch between rounds without touching in-flight readers.
// An installed epoch is immutable, except a working epoch: a store's
// private copy of its setup epoch, which only the goroutine that gathers
// rewrites, in place and only between its own gathers. The store keeps
// the epoch it was built with as its setup epoch: training installs its
// working epoch when a training epoch begins and re-installs the setup
// epoch when it ends, and siblings start on it, so siblings, evaluation
// and checkpoints only ever see the setup epoch. A serving sibling with an
// online cache installs its own working epoch once and keeps it.
//
// The gather path is allocation-free at steady state: output matrices come
// from a pooled tensor arena (return them with Release), each peer's frame
// is encoded by the store's Codec into one reused byte buffer, and
// per-peer request lists are sorted so the owning rank reads its shard
// sequentially.
type Store struct {
	comm   Comm
	layout *Layout
	dim    int
	local  *tensor.Matrix
	epoch  atomic.Pointer[cache.Epoch] // current cache version; nil only when caching is disabled
	setup  *cache.Epoch                // the epoch NewStore was given
	pool   *tensor.Pool
	codec  Codec

	// Gather protocol state; a Store is used by one goroutine at a time
	// (the pipeline's feature-collection stage). rounds double-buffers the
	// per-round bookkeeping so one round can be pending — its ids sent, its
	// rows not yet received — while the next is classified.
	rounds  [2]gatherRound
	pending *gatherRound // round awaiting its rows; nil when no round is in flight

	// held[v] stamps the last stream round that held remote id v and the
	// output row it sits in; a round inherits v when the stamp is the
	// pending round's. Sized to the vertex count at the first GatherNext
	// (which every one-shot Gather runs).
	held []heldRow
	seq  uint32 // stamp of the last GatherNext round; 0 is never a round's

	// Outgoing frames, per peer: the codec's encoding of the staged answer
	// to that peer's last request list (its first answered[p] bytes),
	// with this rank's next request list appended at send time. This
	// rank's own entry stays nil.
	frame    [][]byte
	answered []int
	sorter   idRowSorter
}

// gatherRound is the receiver-side bookkeeping of one gather round.
type gatherRound struct {
	out    *tensor.Matrix // pooled output matrix
	stats  GatherStats
	reqIDs [][]int32 // per-peer request ids, sorted ascending
	rowOf  [][]int32 // rowOf[p][j]: output row waiting on reqIDs[p][j]

	// Remote ids inherited from the round pending when this one was pushed
	// (GatherNext only): output row inhRow[j] is copied from the pending
	// round's row inhSrc[j].
	seq    uint32
	inhRow []int32
	inhSrc []int32
}

// heldRow is one entry of the store's id→(round, row) stamp.
type heldRow struct {
	seq uint32
	row int32
}

// idRowSorter sorts a peer's request ids ascending, carrying the matching
// output-row list along. Held in the Store so sorting allocates nothing.
type idRowSorter struct {
	ids  []int32
	rows []int32
}

func (s *idRowSorter) Len() int           { return len(s.ids) }
func (s *idRowSorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *idRowSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// NewStore validates shapes and returns the store. local holds the rows of
// this rank's layout interval; ep is the initial cache epoch (generation 0,
// the truncated setup ranking) and may be nil to disable caching.
func NewStore(comm Comm, layout *Layout, dim int, local *tensor.Matrix, ep *cache.Epoch) (*Store, error) {
	if comm == nil || layout == nil {
		return nil, fmt.Errorf("dist: store needs comm and layout")
	}
	rank := comm.Rank()
	if rank < 0 || rank >= layout.K() {
		return nil, fmt.Errorf("dist: rank %d outside layout with K=%d", rank, layout.K())
	}
	if comm.Size() != layout.K() {
		return nil, fmt.Errorf("dist: comm size %d != layout K %d", comm.Size(), layout.K())
	}
	if local == nil || local.Cols != dim {
		return nil, fmt.Errorf("dist: local shard missing or wrong width")
	}
	if local.Rows != layout.PartSize(rank) {
		return nil, fmt.Errorf("dist: local shard has %d rows, layout owns %d", local.Rows, layout.PartSize(rank))
	}
	if err := validateEpoch(ep, dim); err != nil {
		return nil, err
	}
	s := newStore(comm, layout, dim, local)
	s.setup = ep
	s.epoch.Store(ep)
	return s, nil
}

// validateEpoch checks an epoch's internal shape agreement against the
// store's feature dimension. nil epochs (caching disabled) are valid.
func validateEpoch(ep *cache.Epoch, dim int) error {
	if ep == nil || ep.Index == nil {
		return nil
	}
	if ep.Rows == nil {
		return fmt.Errorf("dist: cache epoch gen %d has no data rows for %d cached ids", ep.Gen, ep.Index.Len())
	}
	if slots := len(ep.Index.IDs()); ep.Rows.Rows != slots {
		return fmt.Errorf("dist: cache epoch gen %d has %d data rows for %d cache slots", ep.Gen, ep.Rows.Rows, slots)
	}
	if ep.Rows.Cols != dim {
		return fmt.Errorf("dist: cache epoch gen %d width %d != feature dim %d", ep.Gen, ep.Rows.Cols, dim)
	}
	return nil
}

// newStore assembles a validated store with fresh per-Gather scratch. Both
// construction sites (NewStore and Sibling) go through here so a new
// scratch field cannot be initialized in one and forgotten in the other.
func newStore(comm Comm, layout *Layout, dim int, local *tensor.Matrix) *Store {
	k := layout.K()
	s := &Store{
		comm: comm, layout: layout, dim: dim,
		local:    local,
		pool:     tensor.NewPool(),
		frame:    make([][]byte, k),
		answered: make([]int, k),
	}
	for i := range s.rounds {
		s.rounds[i] = gatherRound{
			reqIDs: make([][]int32, k),
			rowOf:  make([][]int32, k),
		}
	}
	return s
}

// InstallEpoch atomically swaps in a new cache epoch and returns the one
// it displaced. Gathers already in flight keep reading the old epoch;
// gathers started after the swap read the new one — so the caller must
// only reuse the returned epoch's storage once it can no longer be read,
// which installs at round barriers (between a store's gathers) guarantee
// for free. The zero-alloc warm gather path is untouched: a swap costs
// readers exactly one pointer load.
func (s *Store) InstallEpoch(ep *cache.Epoch) (*cache.Epoch, error) {
	if err := validateEpoch(ep, s.dim); err != nil {
		return nil, err
	}
	return s.epoch.Swap(ep), nil
}

// Epoch returns the store's current cache epoch (nil when caching is
// disabled). An epoch other than a working epoch is immutable while
// installed, so its IDs and Gen are safe to read from any goroutine that
// knows it stays installed; a working epoch changes between its owner's
// gathers, so only that goroutine may read it while it is installed.
func (s *Store) Epoch() *cache.Epoch { return s.epoch.Load() }

// SetupEpoch returns the epoch the store was built with (nil when caching
// is disabled). It is never released or rewritten, so it is safe to read
// from any goroutine at any time.
func (s *Store) SetupEpoch() *cache.Epoch { return s.setup }

// CacheGen returns the current cache epoch's install generation (0 for the
// setup epoch or when caching is disabled).
func (s *Store) CacheGen() uint64 {
	if ep := s.epoch.Load(); ep != nil {
		return ep.Gen
	}
	return 0
}

// SetCodec selects the wire codec for this store's gathers. All members of
// the comm group must agree (the decode paths reject mismatched payload
// sizes); the zero value is fp32. Install before the first Gather; do not
// call concurrently with Gather or while a stream round is pending.
// Siblings inherit the codec at Sibling time.
func (s *Store) SetCodec(c Codec) { s.codec = c }

// Codec returns the store's wire codec.
func (s *Store) Codec() Codec { return s.codec }

// Sibling returns a second store over the same read-only feature data —
// local shard, setup cache epoch and layout — but a fresh communicator
// and private per-Gather scratch (its id stamp, one entry per vertex, is
// allocated at its first gather). This is the concurrent read path: the
// underlying matrices are never written after construction, so any
// number of sibling stores (an online-serving loop next to the
// training pipeline, several serving replicas) may Gather concurrently,
// each from its own goroutine, as long as each sibling's comm belongs to a
// distinct matched group.
//
// The sibling starts on the parent's setup epoch, not its current one (a
// working epoch is rewritten in place between the parent's gathers),
// and versions independently afterwards: an InstallEpoch on either store
// is invisible to the other, so a serving sibling can track drift while
// the training store's trajectory stays untouched.
func (s *Store) Sibling(comm Comm) (*Store, error) {
	if comm == nil {
		return nil, fmt.Errorf("dist: sibling needs a comm")
	}
	if comm.Rank() != s.comm.Rank() || comm.Size() != s.comm.Size() {
		return nil, fmt.Errorf("dist: sibling comm is rank %d/%d, store is rank %d/%d",
			comm.Rank(), comm.Size(), s.comm.Rank(), s.comm.Size())
	}
	sib := newStore(comm, s.layout, s.dim, s.local)
	sib.codec = s.codec
	sib.setup = s.setup
	sib.epoch.Store(s.setup)
	return sib, nil
}

// Layout returns the store's partition layout (read-only).
func (s *Store) Layout() *Layout { return s.layout }

// Dim returns the feature dimension.
func (s *Store) Dim() int { return s.dim }

// SetAbort installs an abort channel on the store's communicator: when it
// closes, an in-flight or future Gather fails promptly (the comm group is
// torn down as by Close). Serving loops install their shutdown channel
// here so a Gather blocked on a peer unwinds instead of deadlocking.
// Install before the first Gather; do not call concurrently with Gather.
func (s *Store) SetAbort(abort <-chan struct{}) { s.comm.SetAbort(abort) }

// Live returns the number of matrices handed out by Gather and not yet
// returned with Release, plus the one a pending stream round holds — the
// store-pool leak gauge the shutdown/abort regression tests assert returns
// to zero.
func (s *Store) Live() int64 { return s.pool.Live() }

// Release returns a matrix obtained from Gather to the store's pool. The
// matrix must not be used afterwards. Optional — an unreleased matrix is
// simply collected by the GC — but the training pipeline releases every
// retired batch so warm gathers allocate nothing.
func (s *Store) Release(m *tensor.Matrix) { s.pool.Put(m) }

// Gather assembles the feature matrix for ids (row i holds the features of
// ids[i]) and classifies every access. It is a one-round stream — a
// GatherNext with nothing pending, then a GatherFlush — so it runs two
// collectives: the request ids out, then the rows back. All ranks in the
// group must call it the same number of times: rounds with no local batch
// pass an empty id list so the collectives stay matched. The returned
// matrix belongs to the store's pool; hand it back with Release when the
// batch retires. Every error leaves the store idle with nothing of its own
// checked out of the pool.
func (s *Store) Gather(ids []int32) (*tensor.Matrix, GatherStats, error) {
	if s.pending != nil {
		s.drop(nil)
		return nil, GatherStats{}, errors.New("dist: one-shot gather while a stream round is pending (GatherFlush completes it)")
	}
	if _, _, err := s.GatherNext(ids); err != nil {
		return nil, GatherStats{}, err
	}
	return s.GatherFlush()
}

// GatherNext is the training stream's gather: it classifies ids and sends
// their request lists in the same collective that carries the rows
// answering the previous GatherNext, then returns that previous round's
// completed matrix (nil, with zero stats, on the first call of a
// stream). GatherFlush completes the last pending round, so a stream of R
// rounds costs R+1 collectives where R Gathers cost 2R. Remote ids the
// previous round also held — fetched, inherited or cache hits — are not
// requested again: they are copied out of its matrix once it completes
// (stats.Reused counts them), so the matrix equals Gather's bitwise at
// fewer rows on the wire. All ranks must issue the same sequence of
// GatherNext and GatherFlush calls; between a GatherNext and its
// completion the store holds the pending round's pooled matrix (counted
// by Live). The matrix is the caller's to Release. On
// error the pending round is dropped and the store is idle.
func (s *Store) GatherNext(ids []int32) (*tensor.Matrix, GatherStats, error) {
	rd := s.idleRound()
	rd.out = s.pool.Get(len(ids), s.dim)
	done := s.pending
	s.classify(rd, ids, false, done)
	s.stamp(rd, ids)
	if err := s.exchange(rd); err != nil {
		s.drop(rd)
		return nil, GatherStats{}, err
	}
	if done == nil {
		return nil, GatherStats{}, nil
	}
	// done's rows have just scattered in, so its matrix is complete; take
	// rd's inherited rows before the caller may release it.
	for j, row := range rd.inhRow {
		copy(rd.out.Row(int(row)), done.out.Row(int(rd.inhSrc[j])))
	}
	return s.complete(done)
}

// stamp records rd as the holder of its remote ids — requested, inherited
// and cache hits alike — for the round pushed after it. It runs after
// classify, which read the pending round's stamps: a round repeating an
// id inherits every copy from the pending round, never from itself.
func (s *Store) stamp(rd *gatherRound, ids []int32) {
	if s.held == nil {
		s.held = make([]heldRow, s.layout.NumVertices())
	}
	s.seq++
	if s.seq == 0 { // wrapped: no stale stamp may match a new round
		clear(s.held)
		s.seq = 1
	}
	rd.seq = s.seq
	rank := s.comm.Rank()
	lo, hi := s.layout.Starts[rank], s.layout.Starts[rank+1]
	for i, v := range ids {
		if int64(v) < lo || int64(v) >= hi {
			s.held[v] = heldRow{seq: rd.seq, row: int32(i)}
		}
	}
}

// GatherFlush completes the pending stream round with one collective that
// carries rows only, returning its matrix as GatherNext would have, and
// leaves the store idle. It is an error to flush with no round pending.
func (s *Store) GatherFlush() (*tensor.Matrix, GatherStats, error) {
	done := s.pending
	if done == nil {
		return nil, GatherStats{}, errors.New("dist: GatherFlush with no stream round pending")
	}
	if err := s.exchange(nil); err != nil {
		s.drop(nil)
		return nil, GatherStats{}, err
	}
	return s.complete(done)
}

// GatherDiscard abandons a pending stream round without a collective,
// returning its matrix to the pool: the unwind path of a consumer that
// stops mid-stream because its epoch aborted. The comm group must not be
// used for matched gathers afterwards (peers may still expect the
// collective this round owed them). A no-op when no round is pending.
func (s *Store) GatherDiscard() { s.drop(nil) }

// complete hands a finished stream round's matrix and counts to the
// caller.
func (s *Store) complete(rd *gatherRound) (*tensor.Matrix, GatherStats, error) {
	out, st := rd.out, rd.stats
	rd.out = nil
	return out, st, nil
}

// idleRound returns the round slot not held by the pending round.
func (s *Store) idleRound() *gatherRound {
	if s.pending == &s.rounds[0] {
		return &s.rounds[1]
	}
	return &s.rounds[0]
}

// drop returns the store to idle after a failure or an abandoned stream:
// the pooled outputs of the pending round and of rd (the round being
// pushed; may be nil) go back to the pool, and no answer stays staged.
func (s *Store) drop(rd *gatherRound) {
	for _, r := range [2]*gatherRound{s.pending, rd} {
		if r != nil && r.out != nil {
			s.pool.Put(r.out)
			r.out = nil
		}
	}
	s.pending = nil
	clear(s.answered)
}

// GatherLocal is the degraded-mode Gather: it assembles the output from
// the local shard and the cache only, runs no collectives, and zero-fills
// the rows a healthy gather would have fetched remotely, reporting their
// count in stats.Missing. Because it never touches the communicator it
// cannot block, cannot fail, and needs no peer coordination — the serving
// path falls back to it when the comm group is poisoned, trading accuracy
// on the missing rows for availability on all of them. The returned matrix
// belongs to the store's pool; hand it back with Release.
func (s *Store) GatherLocal(ids []int32) (*tensor.Matrix, GatherStats) {
	rd := s.idleRound()
	rd.out = s.pool.Get(len(ids), s.dim)
	s.classify(rd, ids, true, nil)
	out := rd.out
	rd.out = nil
	return out, rd.stats
}

// classify resolves ids into rd's output: local-shard rows and cache hits
// are copied now, remote ids prev (the pending stream round, or nil)
// held are listed for copying out of prev's matrix once it completes, and
// every other id joins its owner's request list, sorted ascending per peer
// so the owner reads its shard sequentially. In local (degraded) mode
// those rows are zero-filled and counted Missing instead — explicitly,
// because pool memory is reused and a skipped write would leak a previous
// batch's features into the prediction.
func (s *Store) classify(rd *gatherRound, ids []int32, local bool, prev *gatherRound) {
	k := s.layout.K()
	rank := s.comm.Rank()
	// One pointer load pins the cache version for the whole gather; an
	// install racing this call flips either all of its lookups or none.
	ep := s.epoch.Load()
	out := rd.out
	for p := 0; p < k; p++ {
		rd.reqIDs[p] = rd.reqIDs[p][:0]
		rd.rowOf[p] = rd.rowOf[p][:0]
	}
	rd.inhRow, rd.inhSrc = rd.inhRow[:0], rd.inhSrc[:0]
	var st GatherStats
	for i, v := range ids {
		owner := s.layout.Owner(v)
		if owner == rank {
			st.Local++
			copy(out.Row(i), s.local.Row(int(int64(v)-s.layout.Starts[rank])))
			continue
		}
		if ep != nil && ep.Index != nil {
			if slot, ok := ep.Index.Slot(v); ok {
				st.CacheHits++
				copy(out.Row(i), ep.Rows.Row(int(slot)))
				continue
			}
		}
		if prev != nil {
			if h := s.held[v]; h.seq == prev.seq {
				st.RemoteFetch++
				st.Reused++
				rd.inhRow = append(rd.inhRow, int32(i))
				rd.inhSrc = append(rd.inhSrc, h.row)
				continue
			}
		}
		rd.reqIDs[owner] = append(rd.reqIDs[owner], v)
		rd.rowOf[owner] = append(rd.rowOf[owner], int32(i))
		if !local {
			st.RemoteFetch++
			continue
		}
		st.Missing++
		clear(out.Row(i))
	}
	for p := 0; p < k; p++ {
		if len(rd.reqIDs[p]) > 1 {
			s.sorter.ids, s.sorter.rows = rd.reqIDs[p], rd.rowOf[p]
			sort.Sort(&s.sorter)
		}
	}
	rd.stats = st
}

// exchange runs one collective. To every peer it sends the staged rows
// answering that peer's last request list followed by next's request list
// for it — nothing more when next is nil (a flush). From every peer it
// receives the mirror image: the prefix holds the rows the pending round
// asked that peer for (the receiver knows their count, so the frame needs
// no header) and scatters into the pending round's sink; the rest is the
// peer's new request list, answered at once from the local shard into the
// peer's outgoing frame for the following exchange. On success next
// becomes the pending round.
func (s *Store) exchange(next *gatherRound) error {
	k := s.layout.K()
	rank := s.comm.Rank()
	for p := 0; p < k; p++ {
		if p == rank {
			continue
		}
		var ids []int32
		if next != nil {
			ids = next.reqIDs[p]
		}
		s.frame[p] = s.codec.appendIDs(s.frame[p][:s.answered[p]], ids)
	}
	recv, err := s.comm.AllToAll(s.frame)
	if err != nil {
		return err
	}
	prev := s.pending
	rowWire := s.codec.featRowWire(s.dim)
	for p := 0; p < k; p++ {
		if p == rank {
			continue
		}
		want := 0
		if prev != nil {
			want = len(prev.reqIDs[p])
		}
		frame := recv[p]
		if len(frame) < want*rowWire {
			return fmt.Errorf("dist: rank %d returned %d payload bytes for %d requested rows", p, len(frame), want)
		}
		rows, ids := frame[:want*rowWire], frame[want*rowWire:]
		if next == nil && len(ids) > 0 {
			return fmt.Errorf("dist: rank %d sent %d request-id bytes on a flush frame", p, len(ids))
		}
		if want > 0 {
			s.scatter(prev, p, rows)
		}
		if err := s.answer(p, ids); err != nil {
			return err
		}
	}
	s.pending = next
	return nil
}

// answer stages this rank's reply to peer p's request list — the
// owner-side shard read — into p's outgoing frame: it decodes the ids to
// the end of the section and encodes each requested row straight into the
// reused frame buffer. Every id is interval-checked, not passed through
// Owner(): a corrupt peer can send a negative or out-of-range id, and
// Owner maps everything below Starts[1] — negatives included — to rank 0,
// which would turn the row subtraction into an out-of-bounds panic.
func (s *Store) answer(p int, ids []byte) error {
	rank := s.comm.Rank()
	lo, hi := s.layout.Starts[rank], s.layout.Starts[rank+1]
	rd, err := s.codec.idReader(ids)
	if err != nil {
		return fmt.Errorf("dist: rank %d request list: %w", p, err)
	}
	enc := s.frame[p][:0]
	for rd.remaining() > 0 {
		v, err := rd.next()
		if err != nil {
			return fmt.Errorf("dist: rank %d request list: %w", p, err)
		}
		if int64(v) < lo || int64(v) >= hi {
			return fmt.Errorf("dist: rank %d requested vertex %d not owned here", p, v)
		}
		enc = s.codec.appendFeatRow(enc, s.local.Row(int(int64(v)-lo)))
	}
	s.frame[p] = enc
	s.answered[p] = len(enc)
	return nil
}

// scatter decodes the rows peer p returned for rd's request list (exactly
// len(rd.rowOf[p]) encoded rows, length-checked by the caller) straight
// into their rows of rd's output.
func (s *Store) scatter(rd *gatherRound, p int, rows []byte) {
	rowWire := s.codec.featRowWire(s.dim)
	for j, row := range rd.rowOf[p] {
		s.codec.decodeFeatRow(rd.out.Row(int(row)), rows[j*rowWire:(j+1)*rowWire])
	}
}
