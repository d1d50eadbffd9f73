// Package ckpt implements fault-tolerant training for the SALIENT++
// reproduction: a versioned, CRC-checked binary checkpoint format covering
// the *complete* training state — model parameters and Adam moments,
// per-rank dropout RNG streams, the epoch/round cursor with the partially
// accumulated epoch statistics, and the partition topology (vertex
// permutation, layout, partition assignment, and per-rank cache contents,
// i.e. the truncated VIP rankings) so a restore skips partitioning and VIP
// re-analysis entirely.
//
// The headline guarantee, enforced by the pipeline's crash-recovery tests,
// is bitwise-identical resume: kill a rank at an arbitrary batch, restore
// from the latest checkpoint, and the final weights, per-epoch loss
// trajectory, and remote-fetch counts match the uninterrupted same-seed
// run exactly, on both the in-process and loopback-TCP transports.
//
// File layout (little-endian throughout):
//
//	magic "SPCK" u32 | version u32
//	header | topology | one rank section per rank, in rank order
//
// Decode accepts the sections in exactly that order and nothing after the
// last rank section. Each section is framed as
//
//	tag u32 | payloadLen u64 | payload | crc32c(payload) u32
//
// so corruption anywhere is detected before any of the payload is
// interpreted. The v6 payloads are
//
//	header   K, epoch, round, rounds u32 | vertices u64 | featureDim u32 |
//	         seed u64 | batch u32 | fanouts | dataset | codec | gradCodec
//	topology perm | starts | parts | one cache id list per rank
//	rank     params (rows, cols, W, M, V, EF each) | adamStep i64 |
//	         modelRNG 4×u64 | loss, accuracy f64 | batches, local, 0,
//	         cacheHit, remote, bytesSent, gradBytesSent i64
//
// The functions header, topology and rank state this layout once; the
// encoder and the decoder both run them. The zero after local is the slot
// that once split local accesses in two (GPU- and CPU-resident rows);
// Decode adds it to local, so older files still read, and the next format
// change drops it.
//
// Decode reads v4 through v6. A v4 file has exactly the v5 layout, which
// adds a compute-precision string after the codec and eight stage-timing
// i64s to each rank section (six after bytesSent, two after
// gradBytesSent); Decode skips both. testdata holds a v5 and a v6 golden
// file; the encoder must reproduce the v6 one byte for byte.
//
// Decode never panics on corrupt input: every array length is bounded by
// the bytes actually present (allocation grows incrementally while
// reading, so a lying length field cannot force a huge allocation), and
// every read is bounds-checked.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	magic uint32 = 0x4b435053 // "SPCK" little-endian
	// version is the format written.
	version uint32 = 6
	// minVersion is the oldest format Decode reads; see the package doc
	// for what v4 and v5 add to the v6 layout. Anything older or newer is
	// rejected.
	minVersion uint32 = 4

	tagHeader   uint32 = 1
	tagTopology uint32 = 2
	tagRank     uint32 = 3

	// maxSection bounds a single section payload; anything larger is
	// treated as corruption rather than allocated.
	maxSection = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Step identifies a barrier-consistent checkpoint position: Round rounds of
// Epoch have been fully retired on every rank (Round 0 means the epoch
// boundary — the previous epoch completed, Epoch has not started).
type Step struct {
	Epoch int
	Round int
}

// Less orders steps chronologically.
func (s Step) Less(o Step) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch < o.Epoch
	}
	return s.Round < o.Round
}

// PartialEpoch is the portion of one rank's epoch statistics accumulated up
// to the checkpoint cursor. Restoring it bitwise (the float64 sums are
// stored as raw IEEE-754 bits) is what makes the resumed epoch's reported
// loss identical to the uninterrupted run's.
type PartialEpoch struct {
	Loss     float64
	Accuracy float64
	Batches  int64 // real (non-padding) batches retired so far
	Local    int64
	CacheHit int64
	Remote   int64
	// BytesSent is the feature-communication byte counter at the cursor.
	// Unlike the counts above it includes collectives of in-flight rounds
	// beyond the cursor, so resumed byte totals are approximate (see the
	// pipeline docs); it is restored for reporting, not for equivalence.
	BytesSent int64
	// GradBytesSent is the gradient all-reduce byte counter at the cursor,
	// approximate after a resume like BytesSent.
	GradBytesSent int64
}

// ParamState is one parameter tensor's full optimizer state: value, Adam
// first/second moments, and (lossy gradient codecs only) the error-feedback
// residual of the compressed all-reduce — all float32, flattened row-major.
// EF is empty for fp32-gradient runs.
type ParamState struct {
	Rows, Cols int32
	W, M, V    []float32
	EF         []float32
}

// RankState is everything one rank needs to resume mid-epoch bitwise
// identically: parameters with optimizer state, the Adam step counter, the
// dropout RNG stream, and the partially accumulated epoch statistics.
type RankState struct {
	Params   []ParamState
	AdamStep int64
	ModelRNG [4]uint64
	Partial  PartialEpoch
}

// Topology pins the data layout of a run so restore skips re-analysis:
// the original→reordered vertex permutation, the contiguous partition
// layout, the per-vertex partition assignment, and each rank's cached
// remote vertex ids (the VIP ranking truncated to the cache capacity), in
// cache-slot order.
type Topology struct {
	NumVertices int64
	FeatureDim  int32
	K           int32
	Perm        []int32
	Starts      []int64
	Parts       []int32
	CacheIDs    [][]int32
}

// TrainState is a complete coordinated checkpoint.
type TrainState struct {
	Step   Step
	Rounds int // collective rounds per epoch (validated on resume)
	// Dataset names the generated dataset the run trained on; Seed,
	// BatchSize, and Fanouts pin the run structure the cursor was taken
	// under (they determine the batch permutation and per-batch sampling
	// streams). A resume with any of them drifted would silently train
	// against the wrong data or replay different batches, so restore
	// validates all four; the dataset seed equals Seed in every shipped
	// flow, so (Dataset, NumVertices, Seed) fully determine regeneration.
	Dataset   string
	Seed      uint64
	BatchSize int32
	Fanouts   []int32
	// Codec names the feature-gather wire codec ("fp32", "fp16", "int8")
	// the run trained under. A lossy codec perturbs every gathered remote
	// row, so resuming under a different codec would silently diverge from
	// the checkpointed trajectory; restore validates it like the seed.
	Codec string
	// GradCodec names the gradient all-reduce wire codec ("fp32", "fp16",
	// "int8") the run trained under. A lossy gradient codec perturbs
	// every optimizer step and carries error-feedback residual state, so
	// it is run identity exactly like Codec; restore validates it.
	GradCodec string
	Topo      *Topology
	Ranks     []*RankState
}

// Validate checks the internal consistency a decoder or resume path relies
// on. Decode runs it automatically.
func (t *TrainState) Validate() error {
	if t.Topo == nil {
		return fmt.Errorf("ckpt: missing topology section")
	}
	tp := t.Topo
	k := int(tp.K)
	if k <= 0 {
		return fmt.Errorf("ckpt: non-positive K %d", k)
	}
	if t.Rounds <= 0 {
		return fmt.Errorf("ckpt: non-positive rounds %d", t.Rounds)
	}
	if t.BatchSize <= 0 {
		return fmt.Errorf("ckpt: non-positive batch size %d", t.BatchSize)
	}
	if t.Dataset == "" || len(t.Dataset) > 256 {
		return fmt.Errorf("ckpt: missing or oversized dataset name")
	}
	if t.Codec == "" || len(t.Codec) > 32 {
		return fmt.Errorf("ckpt: missing or oversized wire codec name")
	}
	if t.GradCodec == "" || len(t.GradCodec) > 32 {
		return fmt.Errorf("ckpt: missing or oversized gradient codec name")
	}
	if len(t.Fanouts) == 0 {
		return fmt.Errorf("ckpt: missing fanouts")
	}
	for i, f := range t.Fanouts {
		if f <= 0 {
			return fmt.Errorf("ckpt: fanout[%d] = %d must be positive", i, f)
		}
	}
	if t.Step.Epoch < 0 || t.Step.Round < 0 || t.Step.Round >= t.Rounds {
		return fmt.Errorf("ckpt: cursor (epoch %d, round %d) outside [0,%d)", t.Step.Epoch, t.Step.Round, t.Rounds)
	}
	if len(t.Ranks) != k {
		return fmt.Errorf("ckpt: %d rank sections for K=%d", len(t.Ranks), k)
	}
	n := tp.NumVertices
	if n <= 0 || tp.FeatureDim <= 0 {
		return fmt.Errorf("ckpt: invalid shape n=%d dim=%d", n, tp.FeatureDim)
	}
	if int64(len(tp.Perm)) != n || int64(len(tp.Parts)) != n {
		return fmt.Errorf("ckpt: perm/parts length %d/%d for %d vertices", len(tp.Perm), len(tp.Parts), n)
	}
	if len(tp.Starts) != k+1 {
		return fmt.Errorf("ckpt: %d layout boundaries for K=%d", len(tp.Starts), k)
	}
	if tp.Starts[0] != 0 || tp.Starts[k] != n {
		return fmt.Errorf("ckpt: layout spans [%d,%d) for %d vertices", tp.Starts[0], tp.Starts[k], n)
	}
	for i := 1; i <= k; i++ {
		if tp.Starts[i] < tp.Starts[i-1] {
			return fmt.Errorf("ckpt: layout boundaries decrease at %d", i)
		}
	}
	if len(tp.CacheIDs) != k {
		return fmt.Errorf("ckpt: %d cache lists for K=%d", len(tp.CacheIDs), k)
	}
	for r, ids := range tp.CacheIDs {
		for _, v := range ids {
			if v < 0 || int64(v) >= n {
				return fmt.Errorf("ckpt: rank %d caches vertex %d outside [0,%d)", r, v, n)
			}
		}
	}
	for r, rs := range t.Ranks {
		if rs == nil {
			return fmt.Errorf("ckpt: rank %d state missing", r)
		}
		if len(rs.Params) != len(t.Ranks[0].Params) {
			return fmt.Errorf("ckpt: rank %d has %d params, rank 0 has %d", r, len(rs.Params), len(t.Ranks[0].Params))
		}
		for i, p := range rs.Params {
			if p.Rows < 0 || p.Cols < 0 {
				return fmt.Errorf("ckpt: rank %d param %d has negative shape", r, i)
			}
			need := int(p.Rows) * int(p.Cols)
			if len(p.W) != need || len(p.M) != need || len(p.V) != need {
				return fmt.Errorf("ckpt: rank %d param %d: %dx%d shape but %d/%d/%d values",
					r, i, p.Rows, p.Cols, len(p.W), len(p.M), len(p.V))
			}
			if len(p.EF) != 0 && len(p.EF) != need {
				return fmt.Errorf("ckpt: rank %d param %d: residual has %d values for %dx%d shape",
					r, i, len(p.EF), p.Rows, p.Cols)
			}
		}
		if rs.AdamStep < 0 || rs.Partial.Batches < 0 {
			return fmt.Errorf("ckpt: rank %d has negative counters", r)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The layout: each function names every field of its section once, in wire
// order. AppendEncode runs them over a writing cursor and Decode over a
// reading one, so the two cannot drift apart.

func header(c *cursor, t *TrainState) {
	tp := t.Topo
	u32(c, &tp.K)
	u32(c, &t.Step.Epoch)
	u32(c, &t.Step.Round)
	u32(c, &t.Rounds)
	u64(c, &tp.NumVertices)
	u32(c, &tp.FeatureDim)
	u64(c, &t.Seed)
	u32(c, &t.BatchSize)
	slice(c, &t.Fanouts, 4, u32[int32])
	c.text(&t.Dataset)
	c.text(&t.Codec)
	if c.ver < 6 {
		var precision string // v4/v5 serving compute precision, ignored
		c.text(&precision)
	}
	c.text(&t.GradCodec)
}

func topology(c *cursor, tp *Topology) {
	slice(c, &tp.Perm, 4, u32[int32])
	slice(c, &tp.Starts, 8, u64[int64])
	slice(c, &tp.Parts, 4, u32[int32])
	if c.read {
		tp.CacheIDs = make([][]int32, tp.K)
	}
	for i := range tp.CacheIDs {
		slice(c, &tp.CacheIDs[i], 4, u32[int32])
	}
}

func rank(c *cursor, rs *RankState) {
	n := uint32(len(rs.Params))
	u32(c, &n)
	// Each encoded param costs at least 40 bytes (rows, cols, four length
	// prefixes), so this bound keeps the ParamState slice allocation
	// proportional to the bytes actually present.
	resize(c, &rs.Params, uint64(n), 40)
	for i := range rs.Params {
		p := &rs.Params[i]
		u32(c, &p.Rows)
		u32(c, &p.Cols)
		for _, s := range []*[]float32{&p.W, &p.M, &p.V, &p.EF} {
			slice(c, s, 4, (*cursor).f32)
		}
		// An empty residual reads as nil so fp32-gradient states
		// round-trip exactly.
		if c.read && len(p.EF) == 0 {
			p.EF = nil
		}
	}
	u64(c, &rs.AdamStep)
	for i := range rs.ModelRNG {
		u64(c, &rs.ModelRNG[i])
	}
	pe := &rs.Partial
	c.f64(&pe.Loss)
	c.f64(&pe.Accuracy)
	// local2 is the retired second local-access slot: written as zero,
	// read into Local. timing absorbs the v4/v5 stage timings.
	var local2, timing int64
	for _, v := range []*int64{&pe.Batches, &pe.Local, &local2, &pe.CacheHit, &pe.Remote, &pe.BytesSent} {
		u64(c, v)
	}
	if c.ver < 6 {
		for range 6 {
			u64(c, &timing)
		}
	}
	u64(c, &pe.GradBytesSent)
	if c.ver < 6 {
		for range 2 {
			u64(c, &timing)
		}
	}
	if c.read {
		pe.Local += local2
	}
}

// ---------------------------------------------------------------------------
// The cursor

// enc is a section payload being written.
type enc struct{ b []byte }

func (e *enc) str(s string) {
	e.b = binary.LittleEndian.AppendUint64(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// section frames the payload: tag, length, payload, CRC.
func (e *enc) section(dst []byte, tag uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, tag)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(e.b)))
	dst = append(dst, e.b...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(e.b, castagnoli))
}

// cursor runs the layout in one direction over the payload b of a format
// version ver. Writing, each field call appends the field's value to b.
// Reading, it overwrites the field from b at off and keeps the first
// error; after an error every read leaves its field alone. A reading
// cursor checks every length against the bytes left before allocating.
type cursor struct {
	enc
	read bool
	ver  uint32
	off  int
	err  error
}

// need reports whether a read of n more bytes fits, recording an error
// when it does not.
func (c *cursor) need(n uint64) bool {
	if c.err == nil && n > uint64(len(c.b)-c.off) {
		c.err = fmt.Errorf("ckpt: %d bytes exceed remaining payload %d", n, len(c.b)-c.off)
	}
	return c.err == nil
}

func u32[T ~int | ~int32 | ~uint32](c *cursor, v *T) {
	if !c.read {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if c.need(4) {
		*v = T(binary.LittleEndian.Uint32(c.b[c.off:]))
		c.off += 4
	}
}

func u64[T ~int64 | ~uint64](c *cursor, v *T) {
	if !c.read {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if c.need(8) {
		*v = T(binary.LittleEndian.Uint64(c.b[c.off:]))
		c.off += 8
	}
}

func (c *cursor) f32(v *float32) {
	bits := math.Float32bits(*v)
	u32(c, &bits)
	if c.read {
		*v = math.Float32frombits(bits)
	}
}

func (c *cursor) f64(v *float64) {
	bits := math.Float64bits(*v)
	u64(c, &bits)
	if c.read {
		*v = math.Float64frombits(bits)
	}
}

func (c *cursor) text(s *string) {
	if !c.read {
		c.str(*s)
		return
	}
	var n uint64
	u64(c, &n)
	if c.need(n) {
		*s = string(c.b[c.off : c.off+int(n)])
		c.off += int(n)
	}
}

// resize makes a reading cursor's *s n elements long, once n elements of
// at least size bytes each fit in the bytes left.
func resize[T any](c *cursor, s *[]T, n uint64, size int) {
	if !c.read || c.err != nil {
		return
	}
	if left := len(c.b) - c.off; n > uint64(left/size) {
		c.err = fmt.Errorf("ckpt: array of %d elements exceeds remaining payload %d", n, left)
		return
	}
	*s = make([]T, n)
}

// slice runs a u64 length and then each element of *s through elem, which
// takes size bytes on the wire.
func slice[T any](c *cursor, s *[]T, size int, elem func(*cursor, *T)) {
	n := uint64(len(*s))
	u64(c, &n)
	resize(c, s, n, size)
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// ---------------------------------------------------------------------------
// Files

// AppendEncode serializes the state, appending to dst (which may be nil or
// a reused buffer), and returns the result.
func AppendEncode(dst []byte, t *TrainState) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return dst, err
	}
	out := binary.LittleEndian.AppendUint32(dst, magic)
	out = binary.LittleEndian.AppendUint32(out, version)
	c := &cursor{ver: version}
	emit := func(tag uint32, body func(*cursor)) {
		c.b = c.b[:0]
		body(c)
		out = c.section(out, tag)
	}
	emit(tagHeader, func(c *cursor) { header(c, t) })
	emit(tagTopology, func(c *cursor) { topology(c, t.Topo) })
	for _, rs := range t.Ranks {
		emit(tagRank, func(c *cursor) { rank(c, rs) })
	}
	return out, nil
}

// sectionNames names the section tags in errors; tag 0 stands for the end
// of the file.
var sectionNames = [...]string{"end of file", "header", "topology", "rank"}

// readSection reads one framed section: tag, payload (verified against its
// CRC), or io.EOF cleanly at end of stream. The payload buffer grows
// incrementally while reading, bounded by the bytes actually present.
func readSection(r io.Reader, scratch []byte) (tag uint32, payload, grown []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, scratch, io.EOF
		}
		return 0, nil, scratch, fmt.Errorf("ckpt: reading section header: %w", err)
	}
	tag = binary.LittleEndian.Uint32(hdr[:])
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > maxSection {
		return 0, nil, scratch, fmt.Errorf("ckpt: section of %d bytes exceeds limit", n)
	}
	// Fill the current capacity, then grow geometrically (doubling, capped
	// at n), reading straight into the buffer tail: no per-chunk zeroed
	// temporaries, and a lying length on a truncated stream allocates at
	// most ~2x the bytes actually read plus the 64 KiB floor. The scratch
	// buffer amortizes across sections of one Decode call.
	const chunk = 64 << 10
	payload = scratch[:0]
	if cap(payload) == 0 && n > 0 {
		payload = make([]byte, 0, min(int(n), chunk))
	}
	for uint64(len(payload)) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(int(n), max(2*cap(payload), chunk)))
			copy(grown, payload)
			payload = grown
		}
		lo := len(payload)
		hi := min(int(n), cap(payload))
		payload = payload[:hi]
		if _, err := io.ReadFull(r, payload[lo:]); err != nil {
			return 0, nil, payload, fmt.Errorf("ckpt: truncated section payload: %w", err)
		}
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return 0, nil, payload, fmt.Errorf("ckpt: truncated section CRC: %w", err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return 0, nil, payload, fmt.Errorf("ckpt: section CRC mismatch (got %#x want %#x)", got, want)
	}
	return tag, payload, payload, nil
}

// Decode reads a checkpoint written by AppendEncode, verifying magic,
// version, framing and every section CRC, and validating the decoded
// state. Sections must come in the order the encoder writes them: header,
// topology, one rank section per rank, then the end of the file. It
// returns an error (never panics) on corrupt input.
func Decode(r io.Reader) (*TrainState, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading preamble: %w", err)
	}
	if m := binary.LittleEndian.Uint32(pre[:]); m != magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	ver := binary.LittleEndian.Uint32(pre[4:])
	if ver < minVersion || ver > version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", ver)
	}

	// next reads the section tagged want (0: the end of the file) through
	// body.
	var scratch []byte
	next := func(want uint32, body func(*cursor)) error {
		tag, payload, grown, err := readSection(r, scratch)
		scratch = grown
		switch {
		case err == io.EOF && want == 0:
			return nil
		case err == io.EOF:
			return fmt.Errorf("ckpt: missing %s section", sectionNames[want])
		case err != nil:
			return err
		case tag == 0 || tag >= uint32(len(sectionNames)):
			return fmt.Errorf("ckpt: unknown section tag %d", tag)
		case tag != want:
			return fmt.Errorf("ckpt: %s section where %s expected", sectionNames[tag], sectionNames[want])
		}
		c := &cursor{enc: enc{b: payload}, read: true, ver: ver}
		body(c)
		if c.err == nil && c.off != len(c.b) {
			c.err = fmt.Errorf("ckpt: %d trailing bytes in %s section", len(c.b)-c.off, sectionNames[tag])
		}
		return c.err
	}

	t := &TrainState{Topo: &Topology{}}
	tp := t.Topo
	if err := next(tagHeader, func(c *cursor) { header(c, t) }); err != nil {
		return nil, err
	}
	if uint32(tp.K) > 1<<16 || uint32(t.Rounds) > 1<<30 || uint32(t.Step.Epoch) > 1<<30 || uint64(tp.NumVertices) > 1<<40 {
		return nil, fmt.Errorf("ckpt: implausible header (k=%d rounds=%d epoch=%d n=%d)",
			uint32(tp.K), uint32(t.Rounds), uint32(t.Step.Epoch), uint64(tp.NumVertices))
	}
	if err := next(tagTopology, func(c *cursor) { topology(c, tp) }); err != nil {
		return nil, err
	}
	for range tp.K {
		rs := &RankState{}
		if err := next(tagRank, func(c *cursor) { rank(c, rs) }); err != nil {
			return nil, err
		}
		t.Ranks = append(t.Ranks, rs)
	}
	if err := next(0, nil); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
