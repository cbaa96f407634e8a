package xmlq

// scan.go is the streaming side of xmlq: a zero-allocation pull scanner
// over a restricted XML subset, built for the SOAP data-plane fast path.
// The full generality of XML — comments, CDATA sections, DOCTYPE
// declarations, non-ASCII names, carriage-return normalisation, XML
// declarations other than a plain version 1.0 / UTF-8 one — is
// deliberately out of scope: the scanner reports ErrComplex for any of
// it and callers fall back to the DOM parser (Parse), which handles the
// long tail through encoding/xml. The contract is therefore not "parse
// all XML" but "parse the envelopes our own encoders emit, byte-exactly
// the way Parse would, or refuse".
//
// Tokens reference the input buffer directly; nothing is copied. A token
// is valid until the next call to Next (the attribute slice is reused),
// but the byte slices inside it point into the caller's buffer and stay
// valid as long as the buffer does.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unicode/utf8"
	"unsafe"
)

// ErrComplex reports markup outside the streaming subset. Callers are
// expected to fall back to Parse, which handles the full grammar.
var ErrComplex = errors.New("xmlq: markup outside the streaming subset")

// TokenKind enumerates scanner token types.
type TokenKind uint8

// Scanner token kinds.
const (
	TokNone TokenKind = iota
	TokStart
	TokEnd
	TokText
	TokEOF
)

// RawAttr is one attribute of a start tag. Value is the raw bytes
// between the quotes: entities are not expanded (see AppendUnescaped).
type RawAttr struct {
	Name  []byte
	Value []byte
}

// RawToken is one scanner event. Name and Text alias the input buffer;
// Attrs is reused across calls to Next.
type RawToken struct {
	Kind TokenKind
	// Name is the tag name as written, including any prefix
	// (TokStart/TokEnd).
	Name []byte
	// Attrs are the start tag's attributes (TokStart only).
	Attrs []RawAttr
	// Text is the raw character run, entities unexpanded (TokText only).
	Text []byte
	// SelfClose marks a <name/> tag: no matching TokEnd will follow.
	SelfClose bool
}

// Scanner is a pull scanner over a byte buffer. The zero value is not
// usable; construct with NewScanner or reuse with Reset.
type Scanner struct {
	buf   []byte
	doc   string // the string buf aliases, after ResetString
	pos   int
	attrs []RawAttr
}

// NewScanner returns a scanner over buf.
func NewScanner(buf []byte) *Scanner {
	s := &Scanner{}
	s.Reset(buf)
	return s
}

// Reset rewinds the scanner onto a new buffer, retaining the attribute
// scratch so pooled scanners stay allocation-free — emptied, so that a
// pooled scanner does not pin the last buffer through it.
func (s *Scanner) Reset(buf []byte) {
	s.buf = buf
	s.doc = ""
	s.pos = 0
	clear(s.attrs[:cap(s.attrs)])
}

// ResetString rewinds the scanner onto a document held in a string
// without copying it: the token slices alias the string's bytes, which
// the scanner only reads. Substring turns such a slice back into a string.
func (s *Scanner) ResetString(doc string) {
	s.Reset(unsafe.Slice(unsafe.StringData(doc), len(doc)))
	s.doc = doc
}

// Substring returns the part of the ResetString document that b aliases,
// where b is a name, value or text slice out of a token (or a reslice of
// one): a substring of the document, not a copy. Every token slice runs to
// the end of the buffer in capacity, so its capacity gives its offset.
func (s *Scanner) Substring(b []byte) string {
	off := len(s.doc) - cap(b)
	return s.doc[off : off+len(b)]
}

// isNameByte reports whether b may appear inside a tag or attribute
// name. The set is ASCII-only on purpose: exotic names fall back.
func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_' || b == '-' || b == '.'
}

func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// Next returns the next token. Errors are either ErrComplex (input the
// subset does not cover — fall back to Parse) or a description of
// malformed markup (the DOM parser would fail on it too).
func (s *Scanner) Next() (RawToken, error) {
	if s.pos >= len(s.buf) {
		return RawToken{Kind: TokEOF}, nil
	}
	if s.buf[s.pos] != '<' {
		return s.text()
	}
	// Markup.
	if s.pos+1 >= len(s.buf) {
		return RawToken{}, fmt.Errorf("xmlq: truncated markup at %d", s.pos)
	}
	switch s.buf[s.pos+1] {
	case '?':
		// Processing instruction (including the XML declaration): the
		// DOM parser drops these, but only once encoding/xml has checked
		// that the target is a name and that an XML declaration names
		// version 1.0 and UTF-8. Skip what it passes for certain; the
		// rest is its call.
		target, i, err := s.name(s.pos + 2)
		if err != nil || i >= len(s.buf) || !(isSpaceByte(s.buf[i]) || s.buf[i] == '?') {
			// Not a name, or one that encoding/xml reads further than
			// name does (it takes any non-ASCII byte into the name).
			return RawToken{}, ErrComplex
		}
		end := indexFrom(s.buf, i, "?>")
		if end < 0 {
			return RawToken{}, fmt.Errorf("xmlq: unterminated processing instruction")
		}
		if string(target) == "xml" {
			switch string(TrimSpaceBytes(s.buf[i:end])) {
			case `version="1.0"`, `version="1.0" encoding="UTF-8"`, `version="1.0" encoding="utf-8"`:
			default:
				return RawToken{}, ErrComplex
			}
		}
		s.pos = end + 2
		return s.Next()
	case '!':
		// Comments, CDATA, DOCTYPE: out of subset.
		return RawToken{}, ErrComplex
	case '/':
		return s.endTag()
	}
	return s.startTag()
}

// indexFrom finds the needle at or after from.
func indexFrom(buf []byte, from int, needle string) int {
	for i := from; i+len(needle) <= len(buf); i++ {
		if string(buf[i:i+len(needle)]) == needle {
			return i
		}
	}
	return -1
}

// text scans a character run up to the next '<' or EOF. The run is
// validated against the subset: ASCII only (multi-byte UTF-8 falls
// back so encoding/xml keeps sole authority over Unicode validation),
// no control bytes besides tab and newline (no carriage returns — the
// DOM layer normalises those). The run is read a word at a time: a word
// with no '<', control or non-ASCII byte is passed over whole, and only
// the first such byte of a word is looked at on its own.
func (s *Scanner) text() (RawToken, error) {
	buf, i := s.buf, s.pos
	for i < len(buf) {
		if i+8 <= len(buf) {
			m := textStops(binary.LittleEndian.Uint64(buf[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += firstMarked(m)
		}
		b := buf[i]
		if b == '<' {
			break
		}
		if b >= utf8.RuneSelf || (b < 0x20 && b != '\t' && b != '\n') {
			s.pos = i
			return RawToken{}, ErrComplex
		}
		i++
	}
	start := s.pos
	s.pos = i
	return RawToken{Kind: TokText, Text: buf[start:i]}, nil
}

// Word-at-a-time (SWAR) byte tests over 8 bytes loaded little-endian, so
// the byte at the lowest address is the lowest byte of the word. Each
// returns a mask with the high bit set in every byte that matches. A
// borrow can mark a byte wrongly only above a byte that truly matched, so
// the lowest mark is always a true match and firstMarked is its offset.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// wordEq marks the bytes of w equal to c.
func wordEq(w uint64, c byte) uint64 {
	x := w ^ lsbs*uint64(c)
	return (x - lsbs) &^ x & msbs
}

// textStops marks the bytes a character run stops or may refuse at: '<',
// control bytes (below 0x20) and non-ASCII bytes.
func textStops(w uint64) uint64 {
	return ((w-lsbs*0x20)&^w | wordEq(w, '<') | w) & msbs
}

// markupStops marks the bytes element text escapes: '&', '<' and '>'.
// '<' (0x3C) and '>' (0x3E) differ only in bit 1, so one test finds both.
func markupStops(w uint64) uint64 {
	return wordEq(w, '&') | wordEq(w|lsbs*0x02, '>')
}

// firstMarked is the offset of the lowest marked byte of a non-zero mask.
func firstMarked(m uint64) int {
	return bits.TrailingZeros64(m) >> 3
}

func (s *Scanner) endTag() (RawToken, error) {
	// s.buf[s.pos:] starts with "</".
	i := s.pos + 2
	name, j, err := s.name(i)
	if err != nil {
		return RawToken{}, err
	}
	for j < len(s.buf) && isSpaceByte(s.buf[j]) {
		j++
	}
	if j >= len(s.buf) || s.buf[j] != '>' {
		return RawToken{}, fmt.Errorf("xmlq: malformed end tag at %d", s.pos)
	}
	s.pos = j + 1
	return RawToken{Kind: TokEnd, Name: name}, nil
}

// name scans a (possibly prefixed) tag or attribute name at i. At most
// one colon is allowed, neither leading nor trailing, so the prefix
// split matches encoding/xml's.
func (s *Scanner) name(i int) ([]byte, int, error) {
	start := i
	colons := 0
	for i < len(s.buf) {
		b := s.buf[i]
		if b == ':' {
			colons++
			if colons > 1 || i == start || i+1 >= len(s.buf) || !isNameByte(s.buf[i+1]) {
				return nil, 0, ErrComplex
			}
			i++
			continue
		}
		if !isNameByte(b) {
			break
		}
		i++
	}
	if i == start {
		return nil, 0, ErrComplex
	}
	first := s.buf[start]
	if first >= '0' && first <= '9' || first == '-' || first == '.' {
		return nil, 0, ErrComplex
	}
	return s.buf[start:i], i, nil
}

func (s *Scanner) startTag() (RawToken, error) {
	name, i, err := s.name(s.pos + 1)
	if err != nil {
		return RawToken{}, err
	}
	s.attrs = s.attrs[:0]
	for {
		sawSpace := false
		for i < len(s.buf) && isSpaceByte(s.buf[i]) {
			i++
			sawSpace = true
		}
		if i >= len(s.buf) {
			return RawToken{}, fmt.Errorf("xmlq: unterminated start tag at %d", s.pos)
		}
		switch s.buf[i] {
		case '>':
			s.pos = i + 1
			return RawToken{Kind: TokStart, Name: name, Attrs: s.attrs}, nil
		case '/':
			if i+1 >= len(s.buf) || s.buf[i+1] != '>' {
				return RawToken{}, fmt.Errorf("xmlq: malformed empty-element tag at %d", s.pos)
			}
			s.pos = i + 2
			return RawToken{Kind: TokStart, Name: name, Attrs: s.attrs, SelfClose: true}, nil
		}
		if !sawSpace {
			return RawToken{}, ErrComplex
		}
		var aname []byte
		aname, i, err = s.name(i)
		if err != nil {
			return RawToken{}, err
		}
		if i >= len(s.buf) || s.buf[i] != '=' {
			// Valueless attributes are a syntax error in XML proper;
			// report complexity and let the DOM parser produce the error.
			return RawToken{}, ErrComplex
		}
		i++
		if i >= len(s.buf) || (s.buf[i] != '"' && s.buf[i] != '\'') {
			return RawToken{}, ErrComplex
		}
		quote := s.buf[i]
		i++
		vstart := i
		for i < len(s.buf) && s.buf[i] != quote {
			b := s.buf[i]
			// Attribute values additionally exclude tab/newline (XML
			// normalises those to spaces, which the subset does not
			// model) and entity references: a bare '&' is a syntax
			// error only the DOM parser is allowed to judge, and an
			// escaped one would need unescaping the subset skips.
			if b >= utf8.RuneSelf || b < 0x20 || b == '<' || b == '&' {
				return RawToken{}, ErrComplex
			}
			i++
		}
		if i >= len(s.buf) {
			return RawToken{}, fmt.Errorf("xmlq: unterminated attribute value at %d", vstart)
		}
		s.attrs = append(s.attrs, RawAttr{Name: aname, Value: s.buf[vstart:i]})
		i++
	}
}

// LocalName returns the part of a raw name after the first colon, or
// the whole name when unprefixed — the same split encoding/xml applies.
func LocalName(name []byte) []byte {
	for i, b := range name {
		if b == ':' {
			return name[i+1:]
		}
	}
	return name
}

// PrefixOf returns the part of a raw name before the first colon, or
// nil when unprefixed.
func PrefixOf(name []byte) []byte {
	for i, b := range name {
		if b == ':' {
			return name[:i]
		}
	}
	return nil
}

// HasAmp reports whether b contains an entity-reference trigger.
func HasAmp(b []byte) bool {
	return bytes.IndexByte(b, '&') >= 0
}

// AppendUnescaped appends src to dst with XML references resolved: the
// five predefined entities plus decimal and hexadecimal character
// references. References the subset does not cover — unknown entity
// names, characters outside the XML Char production — yield ErrComplex
// so the caller falls back to the DOM parser's handling. A reference's
// ';' must come within 12 bytes of its '&'. The runs between references
// are copied whole.
func AppendUnescaped(dst, src []byte) ([]byte, error) {
	for {
		i := bytes.IndexByte(src, '&')
		if i < 0 {
			return append(dst, src...), nil
		}
		dst = append(dst, src[:i]...)
		src = src[i:]
		semi := bytes.IndexByte(src[1:min(len(src), 13)], ';') + 1
		if semi == 0 {
			return dst, ErrComplex
		}
		ref := src[1:semi]
		switch string(ref) {
		case "amp":
			dst = append(dst, '&')
		case "lt":
			dst = append(dst, '<')
		case "gt":
			dst = append(dst, '>')
		case "quot":
			dst = append(dst, '"')
		case "apos":
			dst = append(dst, '\'')
		default:
			r, ok := charRef(ref)
			if !ok {
				return dst, ErrComplex
			}
			dst = utf8.AppendRune(dst, r)
		}
		src = src[semi+1:]
	}
}

// charRef parses a numeric character reference body ("#120" or "#x3C")
// and checks the result against the XML Char production.
func charRef(ref []byte) (rune, bool) {
	if len(ref) < 2 || ref[0] != '#' {
		return 0, false
	}
	var r rune
	digits := ref[1:]
	if digits[0] == 'x' || digits[0] == 'X' {
		digits = digits[1:]
		if len(digits) == 0 {
			return 0, false
		}
		for _, d := range digits {
			var v rune
			switch {
			case d >= '0' && d <= '9':
				v = rune(d - '0')
			case d >= 'a' && d <= 'f':
				v = rune(d-'a') + 10
			case d >= 'A' && d <= 'F':
				v = rune(d-'A') + 10
			default:
				return 0, false
			}
			r = r<<4 | v
			if r > utf8.MaxRune {
				return 0, false
			}
		}
	} else {
		for _, d := range digits {
			if d < '0' || d > '9' {
				return 0, false
			}
			r = r*10 + rune(d-'0')
			if r > utf8.MaxRune {
				return 0, false
			}
		}
	}
	return r, validXMLChar(r)
}

// validXMLChar implements the XML 1.0 Char production.
func validXMLChar(r rune) bool {
	switch {
	case r == '\t' || r == '\n' || r == '\r':
		return true
	case r >= 0x20 && r <= 0xD7FF:
		return true
	case r >= 0xE000 && r <= 0xFFFD:
		return true
	case r >= 0x10000 && r <= 0x10FFFF:
		return true
	}
	return false
}

// TrimSpaceBytes trims the ASCII whitespace Parse's text handling trims.
func TrimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && isSpaceByte(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceByte(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}
