// Package xmlq provides a generic XML document model (a small DOM) and a
// path-query language over it. The HARNESS II design calls for "a
// registry/lookup framework based on the capability of querying XML
// documents (actually WSDL descriptions) for specific nodes and values",
// mapping generic framework queries onto concrete lookup systems; xmlq is
// that capability.
//
// The query language is a deliberately small XPath subset sufficient for
// WSDL and UDDI documents:
//
//	/definitions/service/port          child steps
//	//address                          descendant-or-self step
//	/service[@name='MatMul']           attribute equality predicate
//	/port[binding]                     child-existence predicate
//	/port/@location                    terminal attribute selection
//	/types/*                           wildcard element step
//
// Namespace prefixes are matched against local names; a step "soap:binding"
// matches an element whose local name is "binding" and whose prefix is
// "soap", while a step "binding" matches any prefix.
package xmlq

import (
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// Node is one element of an XML document tree.
type Node struct {
	// Space is the resolved namespace URI (may be empty), Prefix the
	// original prefix as written, Local the local element name.
	Space  string
	Prefix string
	Local  string
	Attrs  []Attr
	// Text is the concatenated character data directly inside this
	// element (not including descendants').
	Text     string
	Children []*Node
	Parent   *Node
}

// Attr is a single XML attribute.
type Attr struct {
	Space string
	Local string
	Value string
}

// NewNode returns an element node with the given name. A name of the form
// "prefix:local" is split into prefix and local parts.
func NewNode(name string) *Node {
	n := &Node{}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		n.Prefix, n.Local = name[:i], name[i+1:]
	} else {
		n.Local = name
	}
	return n
}

// Name returns the node's name as written, including any prefix.
func (n *Node) Name() string {
	if n.Prefix != "" {
		return n.Prefix + ":" + n.Local
	}
	return n.Local
}

// SetAttr sets (or replaces) an attribute by local name.
func (n *Node) SetAttr(local, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Local == local {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Local: local, Value: value})
	return n
}

// Attr returns the value of the attribute with the given local name.
func (n *Node) Attr(local string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or def when absent.
func (n *Node) AttrOr(local, def string) string {
	if v, ok := n.Attr(local); ok {
		return v
	}
	return def
}

// Add appends child and returns n for chaining.
func (n *Node) Add(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return n
}

// AddNew creates a child element with the given name and returns the child.
func (n *Node) AddNew(name string) *Node {
	c := NewNode(name)
	n.Add(c)
	return c
}

// SetText sets the node's direct character data.
func (n *Node) SetText(s string) *Node {
	n.Text = s
	return n
}

// Child returns the first direct child whose local name matches.
func (n *Node) Child(local string) *Node {
	for _, c := range n.Children {
		if c.Local == local {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all direct children with the given local name.
func (n *Node) ChildrenNamed(local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Local == local {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and every descendant in document order. Returning false
// from fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Count returns the number of element nodes in the subtree rooted at n.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Path returns the absolute element path of n, e.g. /definitions/service.
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/" + n.Local
	}
	return n.Parent.Path() + "/" + n.Local
}

// Clone returns a deep copy of the subtree rooted at n with Parent links
// rebuilt; the copy's Parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{Space: n.Space, Prefix: n.Prefix, Local: n.Local, Text: n.Text}
	c.Attrs = append([]Attr(nil), n.Attrs...)
	for _, ch := range n.Children {
		cc := ch.Clone()
		cc.Parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Parse reads an XML document from r into a Node tree. Character data is
// trimmed of surrounding whitespace; comments and processing instructions
// are dropped.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlq: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Space: t.Name.Space, Local: t.Name.Local, Parent: cur}
			// Namespace declarations are kept as ordinary attributes so
			// round-tripped documents remain self-describing.
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Space: a.Name.Space, Local: a.Name.Local, Value: a.Value})
			}
			// encoding/xml resolves prefixes to URIs; recover the written
			// prefix from in-scope xmlns:foo declarations so prefixed query
			// steps (e.g. //soap:binding) keep working on parsed documents.
			if n.Space != "" {
				n.Prefix = prefixFor(n, n.Space)
			}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmlq: multiple document roots")
				}
				root = n
			} else {
				cur.Children = append(cur.Children, n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, fmt.Errorf("xmlq: unbalanced end element %s", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				if s := strings.TrimSpace(string(t)); s != "" {
					if cur.Text != "" {
						cur.Text += s
					} else {
						cur.Text = s
					}
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlq: empty document")
	}
	return root, nil
}

// prefixFor finds the prefix bound to the namespace URI uri by the nearest
// enclosing xmlns:prefix declaration, searching n then its ancestors. A
// default-namespace binding (plain xmlns=) yields the empty prefix.
func prefixFor(n *Node, uri string) string {
	for cur := n; cur != nil; cur = cur.Parent {
		for _, a := range cur.Attrs {
			if a.Space == "xmlns" && a.Value == uri {
				return a.Local
			}
			if a.Space == "" && a.Local == "xmlns" && a.Value == uri {
				return ""
			}
		}
	}
	return ""
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// Encode serialises the subtree rooted at n as indented XML.
func (n *Node) Encode(w io.Writer) error {
	return n.write(w, 0)
}

func (n *Node) write(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	var attrs []byte
	for _, a := range n.Attrs {
		name := a.Local
		if a.Space != "" {
			// Re-qualify xmlns declarations and prefixed attributes.
			if a.Space == "xmlns" {
				name = "xmlns:" + a.Local
			} else {
				name = a.Space + ":" + a.Local
			}
		}
		attrs = append(attrs, ' ')
		attrs = append(attrs, name...)
		attrs = append(attrs, `="`...)
		attrs = AppendAttrEscaped(attrs, a.Value)
		attrs = append(attrs, '"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		_, err := fmt.Fprintf(w, "%s<%s%s/>\n", indent, n.Name(), attrs)
		return err
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>\n", indent, n.Name(), attrs, escapeText(n.Text), n.Name())
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>\n", indent, n.Name(), attrs); err != nil {
		return err
	}
	if n.Text != "" {
		if _, err := fmt.Fprintf(w, "%s  %s\n", indent, escapeText(n.Text)); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := c.write(w, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Name())
	return err
}

// String serialises the subtree as indented XML text.
func (n *Node) String() string {
	var b strings.Builder
	_ = n.Encode(&b)
	return b.String()
}

func escapeText(s string) string {
	return string(AppendEscaped(nil, s))
}

// AppendEscaped appends s to dst as element text: &, < and > become
// entities and every other byte is copied. The runs between them are
// found a word at a time and copied whole.
func AppendEscaped(dst []byte, s string) []byte {
	b := unsafe.Slice(unsafe.StringData(s), len(s)) // read only
	for {
		i := indexMarkup(b)
		if i < 0 {
			return append(dst, b...)
		}
		dst = append(dst, b[:i]...)
		switch b[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		default: // '>'
			dst = append(dst, "&gt;"...)
		}
		b = b[i+1:]
	}
}

// indexMarkup returns the index of the first &, < or > in b, or -1.
func indexMarkup(b []byte) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if m := markupStops(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			return i + firstMarked(m)
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '&' || c == '<' || c == '>' {
			return i
		}
	}
	return -1
}

// AppendAttrEscaped appends s escaped for a double-quoted attribute
// value: &, < and " as entities, and tab, LF and CR as character
// references, which attribute-value normalisation would otherwise turn
// into spaces.
func AppendAttrEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\t':
			dst = append(dst, "&#9;"...)
		case '\n':
			dst = append(dst, "&#10;"...)
		case '\r':
			dst = append(dst, "&#13;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// ValidChars reports whether s is a run of XML 1.0 characters (the Char
// production): valid UTF-8 holding no C0 control but tab, LF and CR, no
// surrogate, and neither U+FFFE nor U+FFFF. No escaping can put a string
// that fails it into a well-formed document.
func ValidChars(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
			return false
		}
		i += n
	}
	return true
}

// SortChildren orders the direct children of n by (Local, name attribute),
// providing a canonical form for structural comparison in tests.
func (n *Node) SortChildren() {
	sort.SliceStable(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		if a.Local != b.Local {
			return a.Local < b.Local
		}
		return a.AttrOr("name", "") < b.AttrOr("name", "")
	})
}
