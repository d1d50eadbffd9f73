package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"salientpp/internal/tensor"
)

// Codec selects the wire encoding of the two sections of a gather frame:
// the feature rows answering a peer's request list and the per-peer
// request-id list that follows them. The cache reduces how many remote
// rows move; the codec
// reduces the bytes each remaining row costs — the residual communication
// Tripathy et al. and Jiang & Rumi identify as the scaling cost once
// caching saturates.
//
// All members of a comm group must configure the same codec (it is
// negotiated out of band through ClusterConfig, whose codec serving shares,
// exactly like the collective-matching discipline itself); the decode paths
// validate payload sizes, so a mismatched group fails loudly instead of
// reading garbage.
//
//   - CodecFP32: raw little-endian float32 rows and raw little-endian
//     int32 id lists, 4 bytes per value and per id. The zero value.
//   - CodecFP16: IEEE-754 binary16 rows (round-to-nearest-even), 2 bytes
//     per value, converted by tensor.EncodeF16/DecodeF16 (F16C where the
//     CPU has it); id lists as sorted varint deltas. ~50% smaller feature
//     payloads with ~2^-11 relative precision — safe for normalized GNN
//     features. A cluster's default (pipeline.ClusterConfig.Codec).
//   - CodecInt8: per-row symmetric int8 quantization (a float32 scale
//     followed by dim int8 values, scale = maxAbs/127), ~75% smaller at
//     dim≳16; id lists as sorted varint deltas. Safe when rows have
//     moderate dynamic range (see the README's communication-efficiency
//     table); a row's quantization error is bounded by maxAbs(row)/254.
//
// Encoding and decoding are pure integer/float operations with a fixed
// evaluation order, so a given payload decodes bitwise identically on
// every transport and machine — the property the cross-transport
// determinism tests pin.
type Codec uint8

const (
	// CodecFP32 is the raw zero value: bitwise identical to the pre-codec
	// wire format.
	CodecFP32 Codec = iota
	// CodecFP16 ships feature rows as IEEE-754 half precision.
	CodecFP16
	// CodecInt8 ships feature rows as per-row-scaled int8.
	CodecInt8
)

// ParseCodec maps a configuration string to a Codec. The empty string is
// CodecFP32, the zero value; a cluster resolves an empty feature codec
// itself before it gets here (pipeline.ClusterConfig.FeatureCodec).
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "", "fp32":
		return CodecFP32, nil
	case "fp16":
		return CodecFP16, nil
	case "int8":
		return CodecInt8, nil
	}
	return CodecFP32, fmt.Errorf("dist: unknown wire codec %q (want fp32, fp16, or int8)", name)
}

// String returns the codec's canonical flag/checkpoint name.
func (c Codec) String() string {
	switch c {
	case CodecFP32:
		return "fp32"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// featRowWire returns the encoded byte size of one dim-wide feature row.
func (c Codec) featRowWire(dim int) int {
	switch c {
	case CodecFP16:
		return 2 * dim
	case CodecInt8:
		return 4 + dim // float32 row scale + dim int8 values
	}
	return 4 * dim
}

// appendFeatRow appends the wire encoding of one feature row to dst.
func (c Codec) appendFeatRow(dst []byte, row []float32) []byte {
	switch c {
	case CodecFP16:
		n := len(dst)
		dst = slices.Grow(dst, 2*len(row))[:n+2*len(row)]
		tensor.EncodeF16(dst[n:], row)
	case CodecInt8:
		// Per-row symmetric scale over the finite magnitudes, delegated to
		// the tensor quantizers. Non-finite values quantize
		// deterministically: ±Inf saturates to ±127 (decoding to ±maxAbs),
		// NaN to 0.
		scale := tensor.Int8RowScale(row)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
		for _, v := range row {
			dst = append(dst, byte(tensor.QuantizeInt8(v, scale)))
		}
	default:
		dst = f32ToBytes(dst, row)
	}
	return dst
}

// decodeFeatRow decodes one encoded row (exactly featRowWire(len(dst))
// bytes at src) into dst. The caller validates src's length.
func (c Codec) decodeFeatRow(dst []float32, src []byte) {
	switch c {
	case CodecFP16:
		tensor.DecodeF16(dst, src)
	case CodecInt8:
		scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
		for i := range dst {
			dst[i] = float32(int8(src[4+i])) * scale
		}
	default:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
			src = src[4:]
		}
	}
}

// RoundTripRow writes the quantize→dequantize image of src into dst: the
// exact values a remote peer receives for a row shipped under this codec.
// Cache rows are hydrated through it, so a cached remote row holds what
// the wire would deliver and the path a row takes never shows in its
// value. It is also the local reference the gather-equivalence tests (and
// the accuracy analysis in the README) compare against. The image is
// computed directly, bitwise equal to appendFeatRow then decodeFeatRow,
// and allocates nothing.
func (c Codec) RoundTripRow(dst, src []float32) {
	switch c {
	case CodecFP16:
		tensor.RoundTripF16(dst, src)
	case CodecInt8:
		scale := tensor.Int8RowScale(src)
		for i, v := range src {
			dst[i] = float32(tensor.QuantizeInt8(v, scale)) * scale
		}
	default:
		copy(dst, src)
	}
}

// ---------------------------------------------------------------------------
// Request-id lists.
//
// Gather sorts each peer's request list ascending (for sequential owner-side
// shard reads). CodecFP32 ships the list as raw little-endian int32, the
// other codecs as varint deltas: consecutive ids are close, so a delta
// takes 1-2 bytes instead of 4. Duplicates (the same vertex requested for
// two output rows) encode as zero deltas.

// appendIDs appends the wire encoding of the ascending request list ids to
// dst.
func (c Codec) appendIDs(dst []byte, ids []int32) []byte {
	if c != CodecFP32 {
		return appendIDsDelta(dst, ids)
	}
	for _, v := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// idReader streams ids back out of an appendIDs payload without
// materializing the list. Raw ids are not range-checked here: the owner
// checks every id against its interval.
type idReader struct {
	idDeltaReader
	raw bool
}

// idReader returns a reader over the request-id section b. A raw fp32
// section that is not a whole number of ids is rejected before any id is
// read.
func (c Codec) idReader(b []byte) (idReader, error) {
	raw := c == CodecFP32
	if raw && len(b)%4 != 0 {
		return idReader{}, fmt.Errorf("dist: %d-byte fp32 request-id section is not a whole number of ids", len(b))
	}
	return idReader{idDeltaReader: idDeltaReader{b: b}, raw: raw}, nil
}

// next decodes the following id.
func (r *idReader) next() (int32, error) {
	if !r.raw {
		return r.idDeltaReader.next()
	}
	v := int32(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	return v, nil
}

// appendIDsDelta appends the varint delta encoding of the ascending list
// ids to dst. The first id is encoded absolutely, each later one as the
// difference from its predecessor.
func appendIDsDelta(dst []byte, ids []int32) []byte {
	prev := int64(0)
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-prev))
		prev = int64(v)
	}
	return dst
}

// idDeltaReader streams ids back out of an appendIDsDelta payload.
type idDeltaReader struct {
	b    []byte
	off  int
	prev int64
}

// next decodes the following id. It errors on a truncated or overlong
// varint and on any delta or id outside [0, 2^31): a corrupt or hostile
// peer cannot smuggle a negative, wrapped, or overflowing vertex id
// through the delta decode. (The delta bound must be checked before the
// addition — a 10-byte varint wraps int64 negative and would otherwise
// slide the cursor backwards through the range check, a case the fuzz
// corpus pins.)
func (r *idDeltaReader) next() (int32, error) {
	d, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated varint id delta at byte %d", r.off)
	}
	if d > math.MaxInt32 {
		return 0, fmt.Errorf("dist: varint id delta %d exceeds the vertex-id range", d)
	}
	r.off += n
	v := r.prev + int64(d)
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("dist: varint id delta overflows int32 (cursor %d, delta %d)", r.prev, d)
	}
	r.prev = v
	return int32(v), nil
}

// remaining reports undecoded bytes. A gather frame carries no id count:
// the owner decodes until remaining reaches zero.
func (r *idDeltaReader) remaining() int { return len(r.b) - r.off }
