//go:build amd64 || arm64

package xdr

// The word-swap kernels for little-endian hosts that tolerate unaligned
// word access. The byte side is reinterpreted as a word slice, which is
// an unaligned load or store on most frame offsets (payloads sit at
// arbitrary 4-byte offsets), and each element is one load, one
// bits.ReverseBytes (a single BSWAP/REV) and one store, with the bounds
// checks hoisted out of the loop.

import (
	"math/bits"
	"unsafe"
)

// swapPut64 stores each src word into dst in big-endian byte order.
// len(dst) must be at least 8*len(src).
func swapPut64(dst []byte, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[8*len(src)-1]
	d := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), len(src))
	for i, v := range src {
		d[i] = bits.ReverseBytes64(v)
	}
}

// swapPut32 is the 4-byte-element twin of swapPut64.
func swapPut32(dst []byte, src []uint32) {
	if len(src) == 0 {
		return
	}
	_ = dst[4*len(src)-1]
	d := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(dst))), len(src))
	for i, v := range src {
		d[i] = bits.ReverseBytes32(v)
	}
}

// swapGet64 loads big-endian words from src into dst. len(src) must be
// at least 8*len(dst).
func swapGet64(dst []uint64, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[8*len(dst)-1]
	s := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(src))), len(dst))
	for i, v := range s {
		dst[i] = bits.ReverseBytes64(v)
	}
}

// swapGet32 is the 4-byte-element twin of swapGet64.
func swapGet32(dst []uint32, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[4*len(dst)-1]
	s := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(src))), len(dst))
	for i, v := range s {
		dst[i] = bits.ReverseBytes32(v)
	}
}
