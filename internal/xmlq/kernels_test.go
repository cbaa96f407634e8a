package xmlq

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// The text kernels' reference implementations: the byte-at-a-time loops
// the word-at-a-time kernels replaced, kept as oracles. Each kernel must
// agree with its oracle on every input — end position, error and output
// bytes (TestTextKernelsMatchOracles, FuzzTextKernels).

// textOracle is Scanner.text a byte at a time: the end of the character
// run starting at pos, and ErrComplex at the first byte outside the subset.
func textOracle(buf []byte, pos int) (int, error) {
	for pos < len(buf) && buf[pos] != '<' {
		b := buf[pos]
		if b >= utf8.RuneSelf || (b < 0x20 && b != '\t' && b != '\n') {
			return pos, ErrComplex
		}
		pos++
	}
	return pos, nil
}

func hasAmpOracle(b []byte) bool {
	for _, c := range b {
		if c == '&' {
			return true
		}
	}
	return false
}

func appendUnescapedOracle(dst, src []byte) ([]byte, error) {
	for i := 0; i < len(src); i++ {
		b := src[i]
		if b != '&' {
			dst = append(dst, b)
			continue
		}
		semi := -1
		for j := i + 1; j < len(src) && j <= i+12; j++ {
			if src[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return dst, ErrComplex
		}
		ref := src[i+1 : semi]
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
		i = semi
	}
	return dst, nil
}

func appendEscapedOracle(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// checkKernels holds every text kernel to its oracle on data.
func checkKernels(t *testing.T, data []byte) {
	t.Helper()
	// The scanner's run from each of the first nine offsets, so every
	// split of the input into whole words and a byte tail is covered.
	for pos := 0; pos < len(data) && pos <= 8; pos++ {
		if data[pos] == '<' {
			continue // Next reads markup there, never a run
		}
		s := NewScanner(data)
		s.pos = pos
		tok, err := s.text()
		wantEnd, wantErr := textOracle(data, pos)
		if s.pos != wantEnd || err != wantErr {
			t.Fatalf("text(%q) from %d = end %d, %v; oracle end %d, %v", data, pos, s.pos, err, wantEnd, wantErr)
		}
		if err == nil && (tok.Kind != TokText || !bytes.Equal(tok.Text, data[pos:wantEnd])) {
			t.Fatalf("text(%q) from %d = %q, want %q", data, pos, tok.Text, data[pos:wantEnd])
		}
	}
	if got, want := HasAmp(data), hasAmpOracle(data); got != want {
		t.Fatalf("HasAmp(%q) = %v, oracle %v", data, got, want)
	}
	prefix := []byte("pre")
	got, err := AppendUnescaped(append([]byte(nil), prefix...), data)
	want, wantErr := appendUnescapedOracle(append([]byte(nil), prefix...), data)
	if !bytes.Equal(got, want) || err != wantErr {
		t.Fatalf("AppendUnescaped(%q) = %q, %v; oracle %q, %v", data, got, err, want, wantErr)
	}
	esc := AppendEscaped(append([]byte(nil), prefix...), string(data))
	if want := appendEscapedOracle(append([]byte(nil), prefix...), string(data)); !bytes.Equal(esc, want) {
		t.Fatalf("AppendEscaped(%q) = %q, oracle %q", data, esc, want)
	}
	back, err := AppendUnescaped(nil, esc[len(prefix):])
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("unescape(escape(%q)) = %q, %v", data, back, err)
	}
}

// TestTextKernelsMatchOracles runs every byte value through every
// position of a window longer than two words, plus reference-heavy runs.
func TestTextKernelsMatchOracles(t *testing.T) {
	const filler = "abcdefghijklmnopq"
	for pos := 0; pos < len(filler); pos++ {
		for c := 0; c < 256; c++ {
			data := []byte(filler)
			data[pos] = byte(c)
			checkKernels(t, data)
			checkKernels(t, data[:pos+1])
		}
	}
	for _, s := range []string{
		"", "&", "&amp;", "a&lt;b&gt;c&quot;&apos;d", "&#233;&#x20AC;&#0;&#xD800;",
		"&toolongentityname;", "&abcdefghijk;", "&abcdefghijkl;", "x&amp",
		"&#0000000065;", "&#00000000065;", // ';' at the last byte looked at, and one past it
		"\t\n \r", "12345678<rest", "1234567\x80", "<>&<>&<>&", escapeText(sampleWSDL),
		strings.Repeat("a", 64) + "<", strings.Repeat("&lt;", 20),
	} {
		checkKernels(t, []byte(s))
	}
}

func FuzzTextKernels(f *testing.F) {
	for _, s := range []string{
		"", "plain text run", "a&lt;b&gt;c&amp;d", "&#233;&#x3C;", "&bogus;",
		"tab\tand\nnewline", "cr\rhere", "caf\xc3\xa9", "12345678<", escapeText(sampleWSDL),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkKernels)
}

// TestEscapeKernelsDoNotAllocate holds both copying kernels to zero
// allocations when dst already has room for the result.
func TestEscapeKernelsDoNotAllocate(t *testing.T) {
	raw := strings.Repeat(`<part name="x" type="xsd:double"/> & `, 40)
	escaped := AppendEscaped(nil, raw)
	dst := make([]byte, 0, 2*len(escaped))
	if n := testing.AllocsPerRun(100, func() { dst = AppendEscaped(dst[:0], raw) }); n != 0 {
		t.Errorf("AppendEscaped allocates %v times into a pre-grown buffer", n)
	}
	if n := testing.AllocsPerRun(100, func() { dst, _ = AppendUnescaped(dst[:0], escaped) }); n != 0 {
		t.Errorf("AppendUnescaped allocates %v times into a pre-grown buffer", n)
	}
	if got, err := AppendUnescaped(dst[:0], escaped); err != nil || string(got) != raw {
		t.Fatalf("round trip = %q, %v", got, err)
	}
}
