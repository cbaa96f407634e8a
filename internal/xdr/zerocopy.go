package xdr

// Numeric array codec kernels (XDR data plane, DESIGN.md S30).
//
// XDR's wire format is big-endian. Every array codec site views its typed
// array as bit-pattern words (the helpers below, which alias the backing
// store without copying) and hands them to one of four word-swap kernels:
// swapPut64/32 store words big-endian, swapGet64/32 load them. Which
// implementation of the kernels a binary carries is fixed by its build:
// zerocopy_fast.go on little-endian hosts with unaligned word access, the
// portable loops below everywhere else (zerocopy_portable.go). Nothing
// chooses at run time. The portable loops live in this untagged file so
// that the tests and FuzzXDRZeroCopyDifferential can hold the word
// kernels bit-for-bit against them on every host.

import (
	"encoding/binary"
	"unsafe"
)

// Reinterpretation helpers. Each views a typed numeric slice as its
// bit-pattern words without copying; the derived slice aliases (and keeps
// alive) the original backing array.

func f64words(a []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

func f32words(a []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

func i64words(a []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

func i32words(a []int32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

// portablePut64 stores each src word into dst in big-endian byte order,
// one element at a time. len(dst) must be at least 8*len(src).
func portablePut64(dst []byte, src []uint64) {
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[8*i:], v)
	}
}

// portablePut32 is the 4-byte-element twin of portablePut64.
func portablePut32(dst []byte, src []uint32) {
	for i, v := range src {
		binary.BigEndian.PutUint32(dst[4*i:], v)
	}
}

// portableGet64 loads big-endian words from src into dst. len(src) must
// be at least 8*len(dst).
func portableGet64(dst []uint64, src []byte) {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(src[8*i:])
	}
}

// portableGet32 is the 4-byte-element twin of portableGet64.
func portableGet32(dst []uint32, src []byte) {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(src[4*i:])
	}
}
