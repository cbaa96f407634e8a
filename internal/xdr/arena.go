package xdr

import "unsafe"

// Arena is the owner of the arrays a server decodes out of request
// frames (DESIGN.md S30). A persistent worker keeps one Arena for its
// lifetime: the array decoders of a Decoder made by Arena.Decoder carve
// their results out of the arena's slab instead of the heap, the
// component borrows those slices for the duration of its Invoke, and
// Release — called once the response is encoded — takes them all back for
// the next request. A 64 KiB array then costs a byte swap into memory that
// is already warm, not a zeroed allocation the collector must later find.
//
// A nil *Arena is the other owner: NewDecoder's decoders allocate every
// slice fresh and the caller keeps it. That is the client side, and every
// caller that does not have a point at which the decoded values die.
//
// An Arena is not safe for concurrent use; it belongs to one goroutine.
type Arena struct {
	slab []uint64 // words, so every carve is aligned for any element type
	off  int      // words lent out since the last Release

	// strays is what an xdrpoison build lent out from outside the slab since
	// the last Release: the lent part of a slab that was replaced mid-frame,
	// and the arrays of frames too large for a slab. Always nil otherwise.
	strays [][]uint64
}

// maxSlab caps a slab, and so the memory a worker holds between requests:
// a connection's workers pin at most maxSlab each however large the frames
// a peer once sent them. Larger frames decode into fresh slices the
// collector takes back, as every frame did before there was an arena.
const maxSlab = 2 << 20

// arrayElem lists the element types of the slices the decoders produce.
type arrayElem interface {
	bool | byte | int32 | int64 | float32 | float64
}

// Decoder returns a decoder over frame whose array and opaque decoders
// lend out arena memory: the slices they return are valid until Release.
// Strings are copied out as always. A nil arena yields NewDecoder(frame).
func (a *Arena) Decoder(frame []byte) *Decoder {
	return &Decoder{buf: frame, arena: a}
}

// Release ends the borrow of everything decoded since the previous
// Release; the memory is handed out again by the next Decoder. Built with
// -tags xdrpoison it first overwrites that memory with a NaN pattern, so a
// component that kept a request slice past its Invoke reads garbage in the
// test suites instead of another caller's data in production.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if poisonOnRelease {
		poison(a.slab[:a.off])
		for _, stray := range a.strays {
			poison(stray)
		}
		a.strays = nil
	}
	a.off = 0
}

func poison(lent []uint64) {
	for i := range lent {
		lent[i] = poisonWord
	}
}

// poisonWord reads as NaN in both float widths and as an implausible
// negative in both integer widths.
const poisonWord = 0xFFFFA5A5FFFFA5A5

// alloc returns the n-element destination an array decoder fills: carved
// from d's arena when it has one, fresh otherwise. Carved memory is not
// zeroed — every decoder overwrites all n elements before returning.
//
// The slab is sized by the frame being decoded. That always suffices: on
// the wire every array carries at least a 4-byte length word and elements
// no narrower than in memory, which covers the up-to-7 bytes a carve is
// rounded up by, so one frame's carves never total more than its length.
// Frames above maxSlab are not given one.
func alloc[T arrayElem](d *Decoder, n int) []T {
	a := d.arena
	if a == nil || n == 0 {
		return make([]T, n)
	}
	var zero T
	words := (n*int(unsafe.Sizeof(zero)) + 7) >> 3
	if a.off+words > len(a.slab) {
		frameWords := (len(d.buf) + 7) >> 3
		if len(d.buf) > maxSlab || words > frameWords {
			if !poisonOnRelease {
				return make([]T, n)
			}
			stray := make([]uint64, words)
			a.strays = append(a.strays, stray)
			return unsafe.Slice((*T)(unsafe.Pointer(&stray[0])), n)
		}
		// Slices already carved for this frame keep the old slab alive.
		if poisonOnRelease {
			a.strays = append(a.strays, a.slab[:a.off])
		}
		a.slab = make([]uint64, frameWords)
		a.off = 0
	}
	p := unsafe.Pointer(&a.slab[a.off])
	a.off += words
	return unsafe.Slice((*T)(p), n)
}
