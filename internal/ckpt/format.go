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
//	section*        — header, topology, then one rank section per rank
//
// Each section is framed as
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
// The zero after local is the slot that once split local accesses in two
// (GPU- and CPU-resident rows); Decode adds it to local, so older files
// still read, and the next format change drops it.
//
// Decode reads v4 through v6. A v4 file has exactly the v5 layout, which
// adds a compute-precision string after the codec and eight stage-timing
// i64s to each rank section (six after bytesSent, two after
// gradBytesSent); Decode skips both.
//
// Decode never panics on corrupt input: every array length is bounded by
// the bytes actually present (allocation grows incrementally while
// reading, so a lying length field cannot force a huge allocation), and
// every read is bounds-checked.
package ckpt

import (
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
// Encoding

// enc accumulates little-endian primitives into a reusable byte slice.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *enc) i64(v int64) { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) i32s(s []int32) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u32(uint32(v))
	}
}
func (e *enc) i64s(s []int64) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u64(uint64(v))
	}
}
func (e *enc) f32s(s []float32) {
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.u32(math.Float32bits(v))
	}
}

// section frames one payload: tag, length, payload, CRC.
func (e *enc) section(dst []byte, tag uint32) []byte {
	var hdr enc
	hdr.b = dst
	hdr.u32(tag)
	hdr.u64(uint64(len(e.b)))
	hdr.b = append(hdr.b, e.b...)
	hdr.u32(crc32.Checksum(e.b, castagnoli))
	return hdr.b
}

// AppendEncode serializes the state, appending to dst (which may be nil or
// a reused buffer), and returns the result.
func AppendEncode(dst []byte, t *TrainState) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return dst, err
	}
	var e enc
	e.b = dst
	e.u32(magic)
	e.u32(version)
	out := e.b

	var p enc
	// Header.
	p.u32(uint32(t.Topo.K))
	p.u32(uint32(t.Step.Epoch))
	p.u32(uint32(t.Step.Round))
	p.u32(uint32(t.Rounds))
	p.u64(uint64(t.Topo.NumVertices))
	p.u32(uint32(t.Topo.FeatureDim))
	p.u64(t.Seed)
	p.u32(uint32(t.BatchSize))
	p.i32s(t.Fanouts)
	p.str(t.Dataset)
	p.str(t.Codec)
	p.str(t.GradCodec)
	out = p.section(out, tagHeader)

	// Topology.
	p.b = p.b[:0]
	p.i32s(t.Topo.Perm)
	p.i64s(t.Topo.Starts)
	p.i32s(t.Topo.Parts)
	for _, ids := range t.Topo.CacheIDs {
		p.i32s(ids)
	}
	out = p.section(out, tagTopology)

	// Rank sections, in rank order.
	for _, rs := range t.Ranks {
		p.b = p.b[:0]
		p.u32(uint32(len(rs.Params)))
		for _, pr := range rs.Params {
			p.u32(uint32(pr.Rows))
			p.u32(uint32(pr.Cols))
			p.f32s(pr.W)
			p.f32s(pr.M)
			p.f32s(pr.V)
			p.f32s(pr.EF)
		}
		p.i64(rs.AdamStep)
		for _, s := range rs.ModelRNG {
			p.u64(s)
		}
		pe := rs.Partial
		p.f64(pe.Loss)
		p.f64(pe.Accuracy)
		p.i64(pe.Batches)
		p.i64(pe.Local)
		p.i64(0)
		p.i64(pe.CacheHit)
		p.i64(pe.Remote)
		p.i64(pe.BytesSent)
		p.i64(pe.GradBytesSent)
		out = p.section(out, tagRank)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Decoding

// cursor is a bounds-checked reader over one section payload.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, fmt.Errorf("ckpt: truncated payload")
	}
	b := c.b[c.off:]
	c.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (c *cursor) u64() (uint64, error) {
	lo, err := c.u32()
	if err != nil {
		return 0, err
	}
	hi, err := c.u32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

func (c *cursor) i64() (int64, error) {
	v, err := c.u64()
	return int64(v), err
}

func (c *cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// length reads an array length and checks the payload actually holds
// elemSize·n more bytes, so a corrupt length cannot drive a huge
// allocation.
func (c *cursor) length(elemSize int) (int, error) {
	v, err := c.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.remaining()/elemSize) {
		return 0, fmt.Errorf("ckpt: array of %d elements exceeds remaining payload %d", v, c.remaining())
	}
	return int(v), nil
}

func (c *cursor) str() (string, error) {
	n, err := c.length(1)
	if err != nil {
		return "", err
	}
	out := string(c.b[c.off : c.off+n])
	c.off += n
	return out, nil
}

func (c *cursor) i32s() ([]int32, error) {
	n, err := c.length(4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		v, err := c.u32()
		if err != nil {
			return nil, err
		}
		out[i] = int32(v)
	}
	return out, nil
}

func (c *cursor) i64s() ([]int64, error) {
	n, err := c.length(8)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		v, err := c.u64()
		if err != nil {
			return nil, err
		}
		out[i] = int64(v)
	}
	return out, nil
}

func (c *cursor) f32s() ([]float32, error) {
	n, err := c.length(4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		v, err := c.u32()
		if err != nil {
			return nil, err
		}
		out[i] = math.Float32frombits(v)
	}
	return out, nil
}

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
	tag = uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	n := uint64(hdr[4]) | uint64(hdr[5])<<8 | uint64(hdr[6])<<16 | uint64(hdr[7])<<24 |
		uint64(hdr[8])<<32 | uint64(hdr[9])<<40 | uint64(hdr[10])<<48 | uint64(hdr[11])<<56
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
	want := uint32(crcb[0]) | uint32(crcb[1])<<8 | uint32(crcb[2])<<16 | uint32(crcb[3])<<24
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return 0, nil, payload, fmt.Errorf("ckpt: section CRC mismatch (got %#x want %#x)", got, want)
	}
	return tag, payload, payload, nil
}

// Decode reads a checkpoint written by Encode, verifying magic, version,
// framing, and every section CRC, and validating the decoded state. It
// returns an error (never panics) on corrupt input.
func Decode(r io.Reader) (*TrainState, error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading preamble: %w", err)
	}
	if m := uint32(pre[0]) | uint32(pre[1])<<8 | uint32(pre[2])<<16 | uint32(pre[3])<<24; m != magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	ver := uint32(pre[4]) | uint32(pre[5])<<8 | uint32(pre[6])<<16 | uint32(pre[7])<<24
	if ver < minVersion || ver > version {
		return nil, fmt.Errorf("ckpt: unsupported version %d", ver)
	}
	// v4 and v5 carry a compute-precision string and eight stage timings
	// per rank that nothing reads; they are skipped.
	legacy := ver < 6

	t := &TrainState{}
	var scratch []byte
	sawHeader := false
	for {
		tag, payload, grown, err := readSection(r, scratch)
		scratch = grown
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		c := &cursor{b: payload}
		switch tag {
		case tagHeader:
			if sawHeader {
				return nil, fmt.Errorf("ckpt: duplicate header section")
			}
			sawHeader = true
			k, err := c.u32()
			if err != nil {
				return nil, err
			}
			epoch, err := c.u32()
			if err != nil {
				return nil, err
			}
			round, err := c.u32()
			if err != nil {
				return nil, err
			}
			rounds, err := c.u32()
			if err != nil {
				return nil, err
			}
			n, err := c.u64()
			if err != nil {
				return nil, err
			}
			dim, err := c.u32()
			if err != nil {
				return nil, err
			}
			seed, err := c.u64()
			if err != nil {
				return nil, err
			}
			batch, err := c.u32()
			if err != nil {
				return nil, err
			}
			fanouts, err := c.i32s()
			if err != nil {
				return nil, err
			}
			dsName, err := c.str()
			if err != nil {
				return nil, err
			}
			codec, err := c.str()
			if err != nil {
				return nil, err
			}
			if legacy {
				if _, err := c.str(); err != nil {
					return nil, err
				}
			}
			gradCodec, err := c.str()
			if err != nil {
				return nil, err
			}
			if k > 1<<16 || rounds > 1<<30 || epoch > 1<<30 || n > 1<<40 {
				return nil, fmt.Errorf("ckpt: implausible header (k=%d rounds=%d epoch=%d n=%d)", k, rounds, epoch, n)
			}
			t.Step = Step{Epoch: int(epoch), Round: int(round)}
			t.Rounds = int(rounds)
			t.Seed = seed
			t.BatchSize = int32(batch)
			t.Fanouts = fanouts
			t.Dataset = dsName
			t.Codec = codec
			t.GradCodec = gradCodec
			t.Topo = &Topology{NumVertices: int64(n), FeatureDim: int32(dim), K: int32(k)}
		case tagTopology:
			if !sawHeader {
				return nil, fmt.Errorf("ckpt: topology before header")
			}
			if t.Topo.Perm != nil {
				return nil, fmt.Errorf("ckpt: duplicate topology section")
			}
			if t.Topo.Perm, err = c.i32s(); err != nil {
				return nil, err
			}
			if t.Topo.Starts, err = c.i64s(); err != nil {
				return nil, err
			}
			if t.Topo.Parts, err = c.i32s(); err != nil {
				return nil, err
			}
			t.Topo.CacheIDs = make([][]int32, t.Topo.K)
			for i := range t.Topo.CacheIDs {
				if t.Topo.CacheIDs[i], err = c.i32s(); err != nil {
					return nil, err
				}
			}
		case tagRank:
			if !sawHeader {
				return nil, fmt.Errorf("ckpt: rank section before header")
			}
			if len(t.Ranks) >= int(t.Topo.K) {
				return nil, fmt.Errorf("ckpt: more rank sections than K=%d", t.Topo.K)
			}
			rs := &RankState{}
			np, err := c.u32()
			if err != nil {
				return nil, err
			}
			// Each encoded param costs at least 40 bytes (rows, cols, four
			// length prefixes), so this bound keeps the ParamState slice
			// allocation proportional to the bytes actually present.
			if uint64(np) > uint64(c.remaining()/40) {
				return nil, fmt.Errorf("ckpt: %d params exceed payload", np)
			}
			rs.Params = make([]ParamState, np)
			for i := range rs.Params {
				p := &rs.Params[i]
				rows, err := c.u32()
				if err != nil {
					return nil, err
				}
				cols, err := c.u32()
				if err != nil {
					return nil, err
				}
				p.Rows, p.Cols = int32(rows), int32(cols)
				if p.W, err = c.f32s(); err != nil {
					return nil, err
				}
				if p.M, err = c.f32s(); err != nil {
					return nil, err
				}
				if p.V, err = c.f32s(); err != nil {
					return nil, err
				}
				// An empty residual normalizes to nil so fp32-gradient
				// states round-trip exactly.
				if p.EF, err = c.f32s(); err != nil {
					return nil, err
				}
				if len(p.EF) == 0 {
					p.EF = nil
				}
			}
			if rs.AdamStep, err = c.i64(); err != nil {
				return nil, err
			}
			for i := range rs.ModelRNG {
				if rs.ModelRNG[i], err = c.u64(); err != nil {
					return nil, err
				}
			}
			pe := &rs.Partial
			for _, dst := range []*float64{&pe.Loss, &pe.Accuracy} {
				if *dst, err = c.f64(); err != nil {
					return nil, err
				}
			}
			var local2 int64 // the retired second local-access slot
			counters := []*int64{&pe.Batches, &pe.Local, &local2, &pe.CacheHit,
				&pe.Remote, &pe.BytesSent, &pe.GradBytesSent}
			if legacy {
				var x int64
				counters = []*int64{&pe.Batches, &pe.Local, &local2, &pe.CacheHit,
					&pe.Remote, &pe.BytesSent, &x, &x, &x, &x, &x, &x, &pe.GradBytesSent, &x, &x}
			}
			for _, dst := range counters {
				if *dst, err = c.i64(); err != nil {
					return nil, err
				}
			}
			pe.Local += local2
			t.Ranks = append(t.Ranks, rs)
		default:
			return nil, fmt.Errorf("ckpt: unknown section tag %d", tag)
		}
		if c.remaining() != 0 {
			return nil, fmt.Errorf("ckpt: %d trailing bytes in section %d", c.remaining(), tag)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("ckpt: missing header section")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
