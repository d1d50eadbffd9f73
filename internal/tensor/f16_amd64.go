//go:build amd64

package tensor

// encodeF16F16C and decodeF16F16C convert len(src)/8 (encode) or
// len(dst)/8 (decode) blocks of eight values with VCVTPS2PH (round to
// nearest even) and VCVTPH2PS (f16_amd64.s). They report whether a value
// was a NaN, whose payload the instructions keep and the scalar
// converters drop; the callers then convert the slice again with the
// scalar loop, which also converts every tail.
//
//go:noescape
func encodeF16F16C(dst []byte, src []float32) (nan bool)

//go:noescape
func decodeF16F16C(dst []float32, src []byte) (nan bool)

// x86HasF16C probes CPUID/XGETBV for usable F16C (see cpu_amd64.s).
func x86HasF16C() bool

// HasF16C selects the fp16 converters' tier once at start-up. Every tier
// gives the scalar converters' bits. Tests clear it to force the portable
// tier.
var HasF16C = x86HasF16C()

func encodeF16(dst []byte, src []float32) {
	if HasF16C {
		n := len(src) &^ 7
		if encodeF16F16C(dst, src[:n]) {
			n = 0 // a NaN: the scalar loop converts it all
		}
		dst, src = dst[2*n:], src[n:]
	}
	encodeF16Go(dst, src)
}

func decodeF16(dst []float32, src []byte) {
	if HasF16C {
		n := len(dst) &^ 7
		if decodeF16F16C(dst[:n], src) {
			n = 0
		}
		dst, src = dst[n:], src[2*n:]
	}
	decodeF16Go(dst, src)
}
