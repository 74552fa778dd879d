package lsh

// useAVX reports whether signatures runs signaturesAVX, decided once at
// start-up: CPUID leaf 1 must report OSXSAVE (ECX bit 27) and AVX (ECX bit
// 28), and XCR0 must show that the OS saves the SSE and AVX register
// state (bits 1 and 2). A CPU can support AVX under an OS that does not
// save the YMM registers, so the CPUID bit alone is not enough.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	return xgetbv0()&(sse|ymm) == sse|ymm
}

// cpuid1ECX returns ECX of CPUID leaf 1, the feature flags.
func cpuid1ECX() uint32

// xgetbv0 returns the low 32 bits of XCR0, the register-state components
// the OS saves. XGETBV faults unless CPUID reports OSXSAVE.
func xgetbv0() uint32

// signaturesAVX is signaturesGo in AVX, bit for bit. For each table it
// keeps the table's 16 sums in four YMM accumulators, adds each row's
// products to them with VMULPD then VADDPD in dimension order, and turns
// them into the signature with VCMPPD GE_OQ against zero and VMOVMSKPD.
// It reads len(sigs)·len(v)·lanes float64s of planes and requires
// len(v) ≥ 1.
//
//go:noescape
func signaturesAVX(planes []float64, v Vector, sigs []uint32, bits int)
