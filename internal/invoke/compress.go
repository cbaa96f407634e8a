package invoke

// Wire-compression policy for the XDR binding (DESIGN.md S33). The
// codec itself is negotiated once at dial time (see internal/xdr frame
// docs); the policy decides what each side offers/accepts and how
// aggressively its own outbound frames are compressed. Modes:
//
//   - auto: follow the deployment — a server advertises and accepts its
//     codec and compresses responses adaptively; a client enables
//     adaptive compression iff the peer's WSDL advertises the `compress`
//     capability and the endpoint is not this host: compression buys link
//     time, and a same-host peer has no link (direct ports without a WSDL
//     stay raw).
//   - off: offer/accept raw only; never compress. Inbound compressed
//     frames are still decoded — the receive side is protocol, not
//     policy.
//   - on: compress every frame over the size floor that actually shrinks.
//   - adaptive: like on, plus incompressibility backoff — a run of
//     frames the codec cannot shrink drops the attempt rate to sampling.

import (
	"fmt"
	"net"
	"strings"

	"harness2/internal/soap"
	"harness2/internal/wsdl"
	"harness2/internal/xdr"
)

// CompressMode selects how an endpoint treats wire compression.
type CompressMode int

const (
	// CompressAuto defers to the deployment default (see package comment).
	CompressAuto CompressMode = iota
	// CompressOff disables outbound compression and offers raw only.
	CompressOff
	// CompressOn compresses every eligible outbound frame.
	CompressOn
	// CompressAdaptive compresses with incompressibility backoff.
	CompressAdaptive
)

func (m CompressMode) String() string {
	switch m {
	case CompressAuto:
		return "auto"
	case CompressOff:
		return "off"
	case CompressOn:
		return "on"
	case CompressAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("CompressMode(%d)", int(m))
}

// CompressPolicy is one endpoint's compression stance. The zero value
// is CompressAuto with the default codec (flate).
type CompressPolicy struct {
	Mode  CompressMode
	Codec string // codec capability name; empty = "flate"
}

// ParseCompressPolicy parses the -compress flag grammar:
// "auto" | "off" | "on" | "adaptive", optionally ":<codec>".
func ParseCompressPolicy(s string) (CompressPolicy, error) {
	mode, codec, _ := strings.Cut(strings.TrimSpace(s), ":")
	var p CompressPolicy
	switch mode {
	case "", "auto":
		p.Mode = CompressAuto
	case "off":
		p.Mode = CompressOff
	case "on":
		p.Mode = CompressOn
	case "adaptive":
		p.Mode = CompressAdaptive
	default:
		return p, fmt.Errorf("invoke: unknown compress mode %q", mode)
	}
	if codec != "" {
		if xdr.CodecByName(codec) == nil {
			return p, fmt.Errorf("invoke: unknown compress codec %q", codec)
		}
		p.Codec = codec
	}
	return p, nil
}

// codec resolves the policy's codec object (default flate).
func (p CompressPolicy) codec() xdr.Codec {
	if p.Codec == "" {
		return xdr.Flate
	}
	return xdr.CodecByName(p.Codec)
}

// CodecName reports the codec the policy would use — what a server
// advertises in WSDL when the policy enables compression.
func (p CompressPolicy) CodecName() string {
	if c := p.codec(); c != nil {
		return c.Name()
	}
	return ""
}

// Advertised reports the codec name a server with this policy should
// publish as the `compress` capability in generated WSDL — empty when the
// policy disables compression (auto counts as on at a server).
func (p CompressPolicy) Advertised() string {
	if !p.enabled(true) {
		return ""
	}
	return p.CodecName()
}

// enabled reports whether the policy compresses outbound frames at all,
// with autoOn supplying the meaning of CompressAuto at this endpoint.
func (p CompressPolicy) enabled(autoOn bool) bool {
	switch p.Mode {
	case CompressOff:
		return false
	case CompressAuto:
		return autoOn
	}
	return true
}

// adaptive reports whether outbound compression backs off on
// incompressible traffic (auto behaves adaptively wherever it is on).
func (p CompressPolicy) adaptive() bool { return p.Mode != CompressOn }

// offerWord builds the client's dial-time offered-codec word.
func (p CompressPolicy) offerWord(autoOn bool) uint32 {
	if !p.enabled(autoOn) {
		return xdr.OfferWord() // raw only
	}
	return xdr.OfferWord(p.codec())
}

// acceptWord builds the server's accepted-codec mask for ChooseCodec.
func (p CompressPolicy) acceptWord(autoOn bool) uint32 {
	return p.offerWord(autoOn) // same shape: raw plus the policy codec
}

// resolveCompress turns a client's stance plus the peer's declared
// `compress` capability and its address into the concrete policy for one
// XDR port. Auto follows the advertisement, where there is a link to save
// time on: a known advertised codec yields adaptive compression with that
// codec unless the endpoint is this host (soap.SameHost — the SOAP plane's
// Accept-Encoding rule, carried to this plane), and anything else stays
// off. Explicit modes pass through untouched on every address — the
// operator outranks both the WSDL and locality.
func resolveCompress(p CompressPolicy, b *wsdl.Binding, addr string) CompressPolicy {
	if p.Mode != CompressAuto {
		return p
	}
	if host, _, err := net.SplitHostPort(addr); err == nil && soap.SameHost(host) {
		return CompressPolicy{Mode: CompressOff}
	}
	if b != nil {
		if name, ok := b.Capability("compress"); ok && xdr.CodecByName(name) != nil {
			return CompressPolicy{Mode: CompressAdaptive, Codec: name}
		}
	}
	return CompressPolicy{Mode: CompressOff}
}

// seal frames e's payload as request or response id: compressed by comp
// when that pays, else in place, with zero extra allocations. A non-nil
// ce holds the compressed frame; it goes back to the pool once the frame
// is written.
func (wm *xdrWireMetrics) seal(comp *xdr.Compressor, id uint64, e *xdr.Encoder) (frame []byte, ce *xdr.Encoder, err error) {
	if comp != nil {
		payload := e.FramePayloadV3()
		if frame, ce = comp.CompressFrameV3(id, payload); ce != nil {
			wm.compressedOut(len(frame)-xdr.FrameHeaderLenV3, len(payload))
			return frame, ce, nil
		}
	}
	frame, err = e.FrameBytesV3(id, 0)
	return frame, nil, err
}
