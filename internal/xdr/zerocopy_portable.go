//go:build !amd64 && !arm64

package xdr

// On hosts that are big-endian or fault on unaligned word access, the
// word-swap kernels are the portable element loops (zerocopy.go).

func swapPut64(dst []byte, src []uint64) { portablePut64(dst, src) }
func swapPut32(dst []byte, src []uint32) { portablePut32(dst, src) }
func swapGet64(dst []uint64, src []byte) { portableGet64(dst, src) }
func swapGet32(dst []uint32, src []byte) { portableGet32(dst, src) }
