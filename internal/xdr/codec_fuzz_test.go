package xdr

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzXDRV3Differential proves the compressed path is an identity for
// every payload: routing it through CompressFrameV3 (forced-on, no size
// floor) → ReadFrameV3 → DecompressFrameV3 — or the raw frame when the
// compressor declines on ratio — must yield byte-identical payload and
// the same request ID.
func FuzzXDRV3Differential(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(7), []byte("payload"))
	f.Add(uint64(1<<40), bytes.Repeat([]byte{0xAB, 0xCD}, 4096))
	f.Add(uint64(0), compressible(2048))
	f.Add(uint64(3), incompressible(2048, 9))

	comp := NewCompressor(Flate, false, 1)
	f.Fuzz(func(t *testing.T, id uint64, payload []byte) {
		if len(payload) > MaxLen {
			t.Skip()
		}
		// Compressed when the codec saves enough, raw otherwise — exactly
		// the sender's runtime decision.
		frame, enc := comp.CompressFrameV3(id, payload)
		if enc == nil {
			e := GetEncoder()
			e.ReserveFrameHeaderV3()
			copy(e.grow(len(payload)), payload)
			var err error
			if frame, err = e.FrameBytesV3(id, 0); err != nil {
				t.Fatalf("raw seal: %v", err)
			}
			enc = e
		}
		gotID, flags, wire, err := ReadFrameV3(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got, err := DecompressFrameV3(flags, wire)
		if err != nil {
			t.Fatalf("decompress (flags %d): %v", flags, err)
		}
		if gotID != id {
			t.Fatalf("id diverged: out %d, in %d", gotID, id)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload diverged: out %d bytes, in %d bytes (flags %d)",
				len(got), len(payload), flags)
		}
		if flags != 0 {
			PutFrameBuf(got)
		}
		PutFrameBuf(wire)
		PutEncoder(enc)
	})
}

// FuzzReadFrameV3 feeds arbitrary byte streams through the frame header
// and flags decoder, then through payload decompression. Invariants:
//
//   - never panics, never accepts a payload above MaxLen;
//   - an accepted frame obeys its declared wire length exactly and its
//     payload is the wire bytes after the header;
//   - decompression of a frame whose flags name a codec either fails
//     cleanly or yields exactly the declared uncompressed length.
func FuzzReadFrameV3(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	var seed bytes.Buffer
	{
		frame, enc := NewCompressor(Flate, false, 1).CompressFrameV3(5, compressible(1024))
		if enc != nil {
			seed.Write(frame)
			PutEncoder(enc)
		}
	}
	f.Add(seed.Bytes())
	// What the retired wire versions opened a stream with: a bare
	// [len][payload] record, and the 0x48584432 magic before a
	// [len][id][payload] frame.
	f.Add([]byte("\x00\x00\x00\x07payload"))
	f.Add([]byte("HXD2\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x07payload"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, flags, payload, err := ReadFrameV3(bytes.NewReader(data))
		if err != nil {
			if payload != nil {
				t.Fatalf("payload returned alongside error %v", err)
			}
			return
		}
		if len(payload) > MaxLen {
			t.Fatalf("accepted payload of %d bytes > MaxLen", len(payload))
		}
		declared := binary.BigEndian.Uint32(data[0:4])
		if int(declared) != len(payload) {
			t.Fatalf("declared %d bytes, decoded %d", declared, len(payload))
		}
		if !bytes.Equal(payload, data[FrameHeaderLenV3:FrameHeaderLenV3+len(payload)]) {
			t.Fatal("payload does not match wire bytes")
		}
		out, err := DecompressFrameV3(flags, payload)
		if err == nil && flags != 0 {
			want := binary.BigEndian.Uint32(payload[0:4])
			if uint32(len(out)) != want {
				t.Fatalf("decompressed %d bytes, declared %d", len(out), want)
			}
			PutFrameBuf(out)
		}
		PutFrameBuf(payload)
	})
}

// TestReadFrameV3Truncated exercises every truncation point of a valid
// frame deterministically (the fuzz seeds only cover a handful).
func TestReadFrameV3Truncated(t *testing.T) {
	e := NewEncoder(32)
	e.ReserveFrameHeaderV3()
	e.Opaque([]byte("abcdefgh"))
	full, err := e.FrameBytesV3(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		_, _, _, err := ReadFrameV3(bytes.NewReader(full[:i]))
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("truncation at %d/%d: error %v", i, len(full), err)
		}
	}
	id, flags, payload, err := ReadFrameV3(bytes.NewReader(full))
	if err != nil || id != 42 || flags != 0 || !bytes.Equal(payload, e.FramePayloadV3()) {
		t.Fatalf("id=%d flags=%d payload=%q err=%v", id, flags, payload, err)
	}
}
