package xdr

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"harness2/internal/wire"
)

// arenaFrame encodes one array of every kind, lengths chosen so the carves
// land at every offset from an 8-byte boundary.
func arenaFrame() ([]byte, []any) {
	vals := []any{
		[]float64{1.5, math.Inf(-1), math.NaN()},
		[]int32{1, -2, 3},
		[]byte{9, 8, 7, 6, 5},
		[]float32{0.25},
		[]bool{true, false, true},
		[]int64{math.MinInt64, 7},
	}
	e := NewEncoder(256)
	if err := EncodeValues(e, vals); err != nil {
		panic(err)
	}
	return e.Bytes(), vals
}

// TestArenaDecodesWhatTheHeapDecodes: several arrays of every kind carved
// from one slab decode to the values a plain decoder produces, request
// after request, into the same memory.
func TestArenaDecodesWhatTheHeapDecodes(t *testing.T) {
	frame, vals := arenaFrame()
	var arena Arena
	var first unsafe.Pointer
	for round := 0; round < 3; round++ {
		got, err := DecodeValues(arena.Decoder(frame))
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if !wire.Equal(got[i], vals[i]) {
				t.Fatalf("round %d value %d: got %v want %v", round, i, got[i], vals[i])
			}
		}
		p := unsafe.Pointer(unsafe.SliceData(got[0].([]float64)))
		if round == 0 {
			first = p
		} else if p != first {
			t.Fatalf("round %d: the first array moved; the slab is not being reused", round)
		}
		if uintptr(unsafe.Pointer(unsafe.SliceData(got[5].([]int64))))%8 != 0 {
			t.Fatal("int64 array carved off an 8-byte boundary")
		}
		arena.Release()
	}
	if arena.off != 0 {
		t.Fatalf("off = %d after Release", arena.off)
	}
}

// TestArenaSteadyStateAllocs: a warm arena takes a 64 KiB array off the
// wire without allocating; the same decode without one allocates it.
func TestArenaSteadyStateAllocs(t *testing.T) {
	e := NewEncoder(8*8192 + 16)
	e.Float64Array(make([]float64, 8192))
	frame := e.Bytes()
	var arena Arena
	decode := func(d *Decoder) {
		if a, err := d.Float64Array(); err != nil || len(a) != 8192 {
			t.Fatalf("len %d err %v", len(a), err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { decode(arena.Decoder(frame)); arena.Release() }); n != 0 {
		t.Errorf("arena decode allocates %.1f times per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { decode(NewDecoder(frame)) }); n != 1 {
		t.Errorf("heap decode allocates %.1f times per frame, want the one array", n)
	}
}

// TestArenaGrowsAndRefusesHugeFrames: a frame larger than the slab gets a
// new slab while earlier carves stay intact; a frame above maxSlab gets
// none, so what a worker holds between requests is bounded by maxSlab
// whatever a peer once sent it.
func TestArenaGrowsAndRefusesHugeFrames(t *testing.T) {
	small := NewEncoder(64)
	small.Float64Array([]float64{1, 2})
	big := NewEncoder(8 * 1024)
	big.Float64Array(make([]float64, 1000))

	var arena Arena
	a, err := arena.Decoder(small.Bytes()).Float64Array()
	if err != nil {
		t.Fatal(err)
	}
	b, err := arena.Decoder(big.Bytes()).Float64Array() // same borrow: no Release between
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 42
	if a[0] != 1 || a[1] != 2 {
		t.Fatalf("growing the slab disturbed an earlier carve: %v", a)
	}
	arena.Release()

	wide := NewEncoder(8 * 2048)
	wide.Float64Array(make([]float64, 2000)) // more than the slab has
	huge := make([]byte, maxSlab+8)
	copy(huge, wide.Bytes())
	slab := len(arena.slab)
	if c, err := arena.Decoder(huge).Float64Array(); err != nil || len(c) != 2000 {
		t.Fatalf("len %d err %v", len(c), err)
	}
	if len(arena.slab) != slab || arena.off != 0 {
		t.Fatalf("a %d-byte frame was given a slab (%d -> %d words, %d lent)", len(huge), slab, len(arena.slab), arena.off)
	}
	arena.Release()
	if n := len(arena.slab) * 8; n > maxSlab {
		t.Fatalf("the worker holds %d bytes between requests, more than maxSlab", n)
	}
}

// TestArenaHostileLengths: a declared length the frame cannot back is
// refused before it sizes a slab or an allocation.
func TestArenaHostileLengths(t *testing.T) {
	for name, decode := range map[string]func(*Decoder) error{
		"float64": func(d *Decoder) error { _, err := d.Float64Array(); return err },
		"int32":   func(d *Decoder) error { _, err := d.Int32Array(); return err },
		"opaque":  func(d *Decoder) error { _, err := d.Opaque(); return err },
		"bool":    func(d *Decoder) error { _, err := d.BoolArray(); return err },
		"strings": func(d *Decoder) error { _, err := d.StringArray(); return err },
		"values":  func(d *Decoder) error { _, err := DecodeValues(d); return err },
	} {
		var arena Arena
		frame := []byte{0x00, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1} // 16 Mi elements, 4 bytes of them
		if err := decode(arena.Decoder(frame)); err != ErrShortBuffer {
			t.Errorf("%s: err = %v, want ErrShortBuffer", name, err)
		}
		if arena.slab != nil {
			t.Errorf("%s: a hostile length sized a %d-word slab", name, len(arena.slab))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = decode(NewDecoder(frame))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 { // honouring it would cost 16 MiB or more
			t.Errorf("%s: a hostile length costs %d bytes", name, n)
		}
	}
}

// TestArenaReleasePoison holds both builds to their word: a normal build
// leaves released memory alone (Release is two stores), an xdrpoison build
// turns every lent-out element into NaN.
//
// That covers everything an arena decoder hands out, not only the current
// slab: arrays carved before the slab was replaced mid-borrow, and arrays
// of a frame too large for a slab, are poisoned too.
func TestArenaReleasePoison(t *testing.T) {
	e := NewEncoder(64)
	e.Float64Array([]float64{1, 2, 3})
	e.Float32Array([]float32{4, 5, 6})
	bigger := NewEncoder(1024)
	bigger.Float64Array(make([]float64, 100))
	huge := make([]byte, maxSlab+8)
	copy(huge, e.Bytes())

	var arena Arena
	d := arena.Decoder(e.Bytes())
	f64, _ := d.Float64Array()
	f32, _ := d.Float32Array()
	grown, _ := arena.Decoder(bigger.Bytes()).Float64Array() // replaces the slab f64 and f32 live in
	stray, _ := arena.Decoder(huge).Float64Array()           // no slab for this frame
	if len(grown) != 100 || len(stray) != 3 {
		t.Fatalf("decoded %d and %d elements", len(grown), len(stray))
	}
	arena.Release()
	for i := range f64 {
		for name, v := range map[string]float64{"f64": f64[i], "f32": float64(f32[i]), "grown": grown[i], "stray": stray[i]} {
			if math.IsNaN(v) != poisonOnRelease {
				t.Fatalf("after Release: %s[%d]=%v with poisonOnRelease=%v", name, i, v, poisonOnRelease)
			}
		}
	}
	if arena.strays != nil {
		t.Fatalf("Release left %d strays", len(arena.strays))
	}
}

// TestFrameBufPoolMixedSizes: a pooled buffer too small for the frame at
// hand goes back for the next small frame instead of being dropped, and
// small and large frames alternating — two buffers out at a time, as a
// server with a small and a bulk caller holds them — settle into a steady
// state that allocates nothing, boxes included.
func TestFrameBufPoolMixedSizes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard: what a Get meets is what was Put
	for frameBufPool.Get() != nil {
	}
	small := make([]byte, 64)
	PutFrameBuf(small)
	large := GetFrameBuf(64 << 10) // meets small
	if again := GetFrameBuf(64); &again[0] != &small[0] {
		t.Error("a 64 KiB get dropped the pooled 64 B buffer it could not use")
	}
	PutFrameBuf(small)
	PutFrameBuf(large)

	round := func() {
		small := GetFrameBuf(64)
		large := GetFrameBuf(64 << 10)
		PutFrameBuf(small)
		PutFrameBuf(large)
		large = GetFrameBuf(64 << 10)
		small = GetFrameBuf(64)
		PutFrameBuf(large)
		PutFrameBuf(small)
	}
	for i := 0; i < 100; i++ { // fill both pools
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("alternating 64 B / 64 KiB frames allocate %.2f times per round, want 0", n)
	}
}
