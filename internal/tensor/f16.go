package tensor

import "encoding/binary"

// Slice converters for the fp16 wire format. EncodeF16, DecodeF16 and
// RoundTripF16 are F16FromF32 and F32FromF16 applied to every element:
// F16C where the CPU has it (f16_amd64.s), the portable loops below
// otherwise. Every tier gives bitwise the scalar converters' results, NaNs
// included (a NaN encodes to sign|0x7e00 and decodes to sign|0x7fc00000:
// the F16C tier hands a slice holding one to the portable loop), so the
// tier a machine picks never shows in a frame or a row.

// EncodeF16 writes the binary16 image of src into dst as little-endian
// halves: dst[2i:2i+2] holds F16FromF32(src[i]). dst must hold at least
// 2*len(src) bytes.
func EncodeF16(dst []byte, src []float32) {
	if len(dst) < 2*len(src) {
		panic("tensor: EncodeF16 destination too short")
	}
	encodeF16(dst[:2*len(src)], src)
}

// DecodeF16 reads len(dst) little-endian halves from src into dst:
// dst[i] = F32FromF16(src[2i:2i+2]). src must hold at least 2*len(dst)
// bytes.
func DecodeF16(dst []float32, src []byte) {
	if len(src) < 2*len(dst) {
		panic("tensor: DecodeF16 source too short")
	}
	decodeF16(dst, src[:2*len(dst)])
}

// RoundTripF16 writes F32FromF16(F16FromF32(src[i])) into dst[i], a chunk
// at a time through a stack buffer; it allocates nothing. dst must be at
// least as long as src.
func RoundTripF16(dst, src []float32) {
	var buf [512]byte
	dst = dst[:len(src)]
	for len(src) > 0 {
		n := min(len(src), len(buf)/2)
		encodeF16(buf[:2*n], src[:n])
		decodeF16(dst[:n], buf[:2*n])
		dst, src = dst[n:], src[n:]
	}
}

// encodeF16Go is the portable encoder and the reference the F16C kernel is
// tested against.
func encodeF16Go(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], F16FromF32(v))
	}
}

// decodeF16Go is the portable decoder.
func decodeF16Go(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = F32FromF16(binary.LittleEndian.Uint16(src[2*i:]))
	}
}
