//go:build !amd64

package lsh

// useAVX is false off amd64: signatures always runs signaturesGo.
const useAVX = false

// signaturesAVX exists only on amd64; signatures never calls this stub.
func signaturesAVX(planes []float64, v Vector, sigs []uint32, bits int) {
	panic("lsh: the AVX signature kernel runs only on amd64")
}
