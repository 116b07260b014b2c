package simd

// AVX2 is whether the CPU has AVX2 and the OS saves the YMM registers. It
// is read once, from CPUID, when the package loads.
var AVX2 = cpuHasAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: OSXSAVE and AVX in leaf 1, XMM and YMM state in XCR0, AVX2 in
// leaf 7.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
