package xdr

// Per-frame compression for the v3 wire protocol (DESIGN.md S33).
//
// A Codec is a table entry, not a fork: the flags byte of every v3 frame
// names the codec that compressed its payload (0 = raw), the dial-time
// offer/answer words carry codec IDs as a bitmask, and both sides resolve
// IDs through the same registry. Compression is a sender-side, per-frame
// decision made by a Compressor: frames below a size floor or that prove
// incompressible ship raw with flags 0, so the no-compression path costs
// nothing beyond one branch and the receiver never needs to know the
// sender's policy.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// ErrBadCodec reports a v3 frame whose flags byte names a codec this
// process does not implement — a protocol error, since the receiver only
// ever advertises codecs it has registered.
var ErrBadCodec = errors.New("xdr: unknown compression codec")

// ErrCodecData reports a compressed payload that does not decompress to
// exactly its declared uncompressed length.
var ErrCodecData = errors.New("xdr: corrupt compressed payload")

// Codec compresses and decompresses v3 frame payloads. Implementations
// must be safe for concurrent use; the flate codec pools its stream state.
type Codec interface {
	// ID is the codec's wire identity: the v3 flags byte of frames it
	// compressed, and its bit position in the offer/answer words. Must be
	// in [1, 15]; 0 is the raw (identity) pseudo-codec.
	ID() uint8
	// Name is the codec's capability name as advertised in WSDL.
	Name() string
	// AppendCompress appends the compressed form of src to e.
	AppendCompress(e *Encoder, src []byte) error
	// DecompressInto decompresses src into dst, which has exactly the
	// declared uncompressed length; any mismatch is an error.
	DecompressInto(dst, src []byte) error
}

// maxCodecID bounds registered codec IDs to the low nibble of the flags
// byte; the high nibble is reserved.
const maxCodecID = 15

var (
	codecMu  sync.RWMutex
	codecTab [maxCodecID + 1]Codec
)

// RegisterCodec adds a codec to the registry. ID 0 and duplicate IDs
// panic: the table is wire protocol, not configuration.
func RegisterCodec(c Codec) {
	id := c.ID()
	if id == 0 || id > maxCodecID {
		panic("xdr: codec ID out of range")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if codecTab[id] != nil {
		panic("xdr: duplicate codec ID")
	}
	codecTab[id] = c
}

// CodecByID resolves a flags byte / negotiated codec ID; nil when unknown
// or 0 (raw).
func CodecByID(id uint8) Codec {
	if id == 0 || id > maxCodecID {
		return nil
	}
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecTab[id]
}

// CodecByName resolves a WSDL capability name; nil when unknown.
func CodecByName(name string) Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	for _, c := range codecTab {
		if c != nil && c.Name() == name {
			return c
		}
	}
	return nil
}

// OfferWord builds the dial-time offered-codec bitmask for a set of
// codecs. Bit 0 (raw) is always set.
func OfferWord(cs ...Codec) uint32 {
	w := uint32(1)
	for _, c := range cs {
		if c != nil {
			w |= 1 << c.ID()
		}
	}
	return w
}

// ChooseCodec picks the server's answer from a client's offer word,
// masked by the codecs the server accepts: the highest registered codec
// ID present in both. Nil means raw only (answer word 0).
func ChooseCodec(offer, accept uint32) Codec {
	for id := maxCodecID; id >= 1; id-- {
		if offer&accept&(1<<uint(id)) != 0 {
			if c := CodecByID(uint8(id)); c != nil {
				return c
			}
		}
	}
	return nil
}

// CodecFlate is the wire ID of the stdlib DEFLATE codec.
const CodecFlate uint8 = 1

// Flate is the built-in DEFLATE codec (compress/flate, BestSpeed), always
// registered.
var Flate Codec = flateCodec{}

func init() { RegisterCodec(Flate) }

type flateCodec struct{}

func (flateCodec) ID() uint8    { return CodecFlate }
func (flateCodec) Name() string { return "flate" }

// flateWriters pools *flate.Writer stream state (the dominant cost of a
// fresh writer is its ~64 KiB of window/huffman tables).
var flateWriters = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// flateReaders pools decompressor state together with the bytes.Reader
// that feeds it, so a decode allocates nothing in steady state.
type flateReader struct {
	br bytes.Reader
	fr io.ReadCloser
}

var flateReaders = sync.Pool{
	New: func() any {
		r := &flateReader{}
		r.fr = flate.NewReader(&r.br)
		return r
	},
}

// encSink adapts an Encoder into the io.Writer a flate.Writer needs.
type encSink struct{ e *Encoder }

func (s encSink) Write(p []byte) (int, error) {
	copy(s.e.grow(len(p)), p)
	return len(p), nil
}

func (flateCodec) AppendCompress(e *Encoder, src []byte) error {
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(encSink{e})
	if _, err := fw.Write(src); err != nil {
		flateWriters.Put(fw)
		return err
	}
	err := fw.Close()
	flateWriters.Put(fw)
	return err
}

func (flateCodec) DecompressInto(dst, src []byte) error {
	r := flateReaders.Get().(*flateReader)
	defer flateReaders.Put(r)
	r.br.Reset(src)
	if err := r.fr.(flate.Resetter).Reset(&r.br, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(r.fr, dst); err != nil {
		return ErrCodecData
	}
	// The stream must end exactly at the declared length: trailing bytes
	// mean the sender lied about the uncompressed size.
	var one [1]byte
	if n, _ := r.fr.Read(one[:]); n != 0 {
		return ErrCodecData
	}
	return nil
}

// Adaptive-compression policy constants.
const (
	// CompressMinLen is the default size floor: frames smaller than this
	// ship raw without consulting the codec — compression overhead
	// (headers plus CPU) exceeds any plausible saving.
	CompressMinLen = 512
	// adaptiveStreak is how many consecutive incompressible frames put an
	// adaptive compressor into probing mode.
	adaptiveStreak = 4
	// adaptiveProbeEvery is how often a probing compressor re-attempts
	// compression; the frames in between ship raw at branch cost.
	adaptiveProbeEvery = 16
)

// Compressor applies one negotiated codec to outbound v3 frames with a
// per-frame ship-raw/ship-compressed decision. In adaptive mode a run of
// incompressible frames backs the compressor off to sampling, so random
// payloads pay flate CPU on at most 1-in-16 frames; a frame that does
// compress snaps it back to trying every frame. Safe for concurrent use
// (the server compresses responses from many workers).
type Compressor struct {
	codec    Codec
	adaptive bool
	minLen   int

	mu     sync.Mutex
	streak int // consecutive incompressible attempts
	skip   int // raw frames remaining before the next probe
}

// NewCompressor returns a compressor for one negotiated codec. adaptive
// enables the incompressibility backoff; minLen ≤ 0 selects
// CompressMinLen.
func NewCompressor(c Codec, adaptive bool, minLen int) *Compressor {
	if c == nil {
		return nil
	}
	if minLen <= 0 {
		minLen = CompressMinLen
	}
	return &Compressor{codec: c, adaptive: adaptive, minLen: minLen}
}

// Codec returns the compressor's negotiated codec.
func (c *Compressor) Codec() Codec {
	if c == nil {
		return nil
	}
	return c.codec
}

// CompressFrameV3 builds a complete compressed v3 frame for the given
// request ID and logical payload, returning the wire bytes and the pooled
// encoder that owns them (release with PutEncoder after writing). It
// returns (nil, nil) when the frame should ship raw instead: compressor
// off, payload under the size floor, adaptive backoff skipping this
// frame, or compression not saving at least 1/8 of the payload.
func (c *Compressor) CompressFrameV3(id uint64, payload []byte) ([]byte, *Encoder) {
	if c == nil || len(payload) < c.minLen || len(payload) > MaxLen {
		return nil, nil
	}
	if !c.tryNow() {
		return nil, nil
	}
	e := GetEncoder()
	e.ReserveFrameHeaderV3()
	e.Uint32(uint32(len(payload)))
	if err := c.codec.AppendCompress(e, payload); err != nil {
		PutEncoder(e)
		c.record(false)
		return nil, nil
	}
	wire := e.Len() - FrameHeaderLenV3
	if wire > MaxLen || wire >= len(payload)-len(payload)/8 {
		PutEncoder(e)
		c.record(false)
		return nil, nil
	}
	frame, err := e.FrameBytesV3(id, c.codec.ID())
	if err != nil {
		PutEncoder(e)
		return nil, nil
	}
	c.record(true)
	return frame, e
}

func (c *Compressor) tryNow() bool {
	if !c.adaptive {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.skip > 0 {
		c.skip--
		return false
	}
	return true
}

func (c *Compressor) record(compressed bool) {
	if !c.adaptive {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if compressed {
		c.streak = 0
		return
	}
	c.streak++
	if c.streak >= adaptiveStreak {
		c.skip = adaptiveProbeEvery - 1
	}
}

// DecompressFrameV3 resolves a v3 frame payload according to its flags
// byte. Flags 0 returns the payload unchanged; otherwise it returns the
// decompressed payload in a fresh pooled buffer (the caller still owns
// the input buffer and should release both).
func DecompressFrameV3(flags byte, payload []byte) ([]byte, error) {
	if flags == 0 {
		return payload, nil
	}
	c := CodecByID(flags)
	if c == nil {
		return nil, ErrBadCodec
	}
	if len(payload) < 4 {
		return nil, ErrShortBuffer
	}
	n := binary.BigEndian.Uint32(payload[:4])
	if n > MaxLen {
		return nil, ErrTooLarge
	}
	dst := GetFrameBuf(int(n))
	if err := c.DecompressInto(dst, payload[4:]); err != nil {
		PutFrameBuf(dst)
		return nil, err
	}
	return dst, nil
}
