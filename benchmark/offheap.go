package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns room for n values of T in anonymous memory the Go
// collector does not know about, and the function that gives it back. The
// benchmark keeps its latency samples and spans there: on the Go heap they
// would be most of this process's live data, and the collector paces itself
// by live data, so the harness would decide how often the stack under test
// is collected (xdr-array gained a tenth of its throughput that way).
// T must hold no pointers.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping %d bytes for samples: %w", size, err)
	}
	free := func() { _ = syscall.Munmap(mem) } // cannot fail for a mapping made above
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0], free, nil
}
