// Package xmltree provides a lightweight ordered XML document object model.
//
// The composition algorithms in this repository operate on SBML documents,
// which are XML. Rather than binding struct tags (which loses element order
// and unknown attributes — both of which matter for the tree-to-tree
// comparison methods of the paper's §4.1.1), we parse into an explicit tree
// of Nodes that preserves document order, every attribute, and character
// data. The tree supports cloning, canonical serialization, path-based
// lookup and structural equality, and is the substrate for both the SBML
// object model (internal/sbml) and the XML diff tools (internal/treediff).
//
// # Parsing
//
// Parse and ParseString are a single-pass byte scanner over the whole
// input. They accept exactly the documents encoding/xml's Decoder accepts
// in strict mode, and build exactly the tree the earlier encoding/xml
// token loop built; that loop is kept in the tests as the oracle the
// scanner is differentially fuzzed against (FuzzParse). The language is:
//
//   - UTF-8 only. An XML declaration must say version 1.0 if it gives a
//     version, and an encoding other than UTF-8 is rejected. Text, CDATA
//     and attribute values must be valid UTF-8 within the XML Char range;
//     names must be XML 1.0 names.
//   - The five predefined entities and decimal and hex character
//     references are replaced. Any other entity is rejected: DTD internal
//     subsets are skipped, not expanded.
//   - "\r\n" and "\r" in text and attribute values become "\n".
//   - Comments are kept (inside the root) and may not contain "--".
//     Processing instructions, DOCTYPE and other directives are skipped,
//     as are text and comments outside the root element, which must still
//     be well formed.
//   - Namespace prefixes are dropped from names, except that a name in the
//     namespace "xmlns" — an xmlns:p declaration, or a prefix bound to the
//     URL "xmlns" — keeps the form "xmlns:" + local name. End tags must
//     match their start tags as written.
//   - Whitespace-only text nodes are dropped.
//
// Every string in a parsed tree is a copy or a constant, never a substring
// of the input, so a tree kept alive does not keep its input alive.
//
// ParseUntil is the same scanner stopped early, at the start tag of the
// root's first child element of a given name; it reads a document's
// header (an SBML model's id, say) without building the rest.
package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates the node variants stored in a tree.
type Kind int

const (
	// Element is a named XML element with attributes and children.
	Element Kind = iota
	// Text is a character-data node; only the Text field is meaningful.
	Text
	// Comment is an XML comment node; only the Text field is meaningful.
	Comment
)

// String returns a human-readable name for the node kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Attr is a single XML attribute. Namespace prefixes are kept verbatim in
// Name (e.g. "xmlns:math") because SBML documents use a small fixed set of
// namespaces and round-tripping the prefix is more faithful than expanding
// it.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an XML document tree.
type Node struct {
	Kind     Kind
	Name     string  // element name, with prefix if present
	Attrs    []Attr  // attributes in document order
	Children []*Node // child nodes in document order
	Text     string  // character data for Text/Comment nodes
}

// NewElement returns a new element node with the given name.
func NewElement(name string) *Node {
	return &Node{Kind: Element, Name: name}
}

// NewText returns a new text node holding s.
func NewText(s string) *Node {
	return &Node{Kind: Text, Text: s}
}

// Attr returns the value of the named attribute, or "" if absent.
func (n *Node) Attr(name string) string {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// HasAttr reports whether the named attribute is present.
func (n *Node) HasAttr(name string) bool {
	for _, a := range n.Attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// SetAttr sets the named attribute, replacing an existing value or appending
// a new attribute in document order.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttr deletes the named attribute if present.
func (n *Node) RemoveAttr(name string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

// Child returns the first child element with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == Element && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildElements returns all child elements, optionally filtered by name.
// An empty name matches every element child.
func (n *Node) ChildElements(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element && (name == "" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

// AppendChild appends c to n's children and returns c for chaining.
func (n *Node) AppendChild(c *Node) *Node {
	n.Children = append(n.Children, c)
	return c
}

// RemoveChild removes the first occurrence of c (by pointer identity) from
// n's children and reports whether it was found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// InnerText concatenates the text content of n and all its descendants in
// document order, with surrounding whitespace trimmed.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.innerText(&b)
	return strings.TrimSpace(b.String())
}

func (n *Node) innerText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.innerText(b)
	}
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Walk visits n and every descendant in document order, calling fn with the
// node and its depth. If fn returns false the node's children are skipped.
func (n *Node) Walk(fn func(node *Node, depth int) bool) {
	n.walk(0, fn)
}

func (n *Node) walk(depth int, fn func(*Node, int) bool) {
	if !fn(n, depth) {
		return
	}
	for _, c := range n.Children {
		c.walk(depth+1, fn)
	}
}

// Find returns the first element reached by following the '/'-separated path
// of element names below n, or nil if any step is missing. The path does not
// include n itself: n.Find("model/listOfSpecies") looks for a "model" child.
func (n *Node) Find(path string) *Node {
	cur := n
	for _, step := range strings.Split(path, "/") {
		if cur = cur.Child(step); cur == nil {
			return nil
		}
	}
	return cur
}

// FindAll returns every element reached by the '/'-separated path below n.
// Each step fans out across all matching children.
func (n *Node) FindAll(path string) []*Node {
	frontier := []*Node{n}
	for _, step := range strings.Split(path, "/") {
		var next []*Node
		for _, f := range frontier {
			next = append(next, f.ChildElements(step)...)
		}
		frontier = next
		if len(frontier) == 0 {
			return nil
		}
	}
	return frontier
}

// Count returns the number of nodes in the subtree rooted at n, including n.
func (n *Node) Count() int {
	total := 0
	n.Walk(func(*Node, int) bool { total++; return true })
	return total
}

// Equal reports deep structural equality of two subtrees: same kinds, names,
// attribute sets (order-insensitive) and children (order-sensitive).
// Attribute order is ignored because XML defines attributes as unordered.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name {
		return false
	}
	if a.Kind != Element {
		return strings.TrimSpace(a.Text) == strings.TrimSpace(b.Text)
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for _, attr := range a.Attrs {
		if !b.HasAttr(attr.Name) || b.Attr(attr.Name) != attr.Value {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// WriteTo serializes the subtree rooted at n to w as indented XML.
// It implements io.WriterTo. The subtree is rendered into one buffer and
// written with a single Write: serialization is on the hot path of WAL
// appends, snapshot writes and corpus adds, where the old per-node
// fmt.Fprintf rendering cost more than compiling the model. A Write must
// not retain its argument, so the buffer is reused by the next WriteTo.
func (n *Node) WriteTo(w io.Writer) (int64, error) {
	bp := renderBufs.Get().(*[]byte)
	buf := n.appendXML((*bp)[:0], 0)
	nn, err := w.Write(buf)
	if cap(buf) <= maxPooledRender {
		*bp = buf
		renderBufs.Put(bp)
	}
	return int64(nn), err
}

// renderBufs holds WriteTo's render buffers. A buffer that grew past
// maxPooledRender is left to the collector instead of being pinned.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRender = 256 << 10

// String returns the indented XML serialization of the subtree rooted at n.
func (n *Node) String() string {
	return string(n.appendXML(make([]byte, 0, 1024), 0))
}

// appendXML renders the subtree into buf (returned grown, append-style).
func (n *Node) appendXML(buf []byte, depth int) []byte {
	switch n.Kind {
	case Text:
		buf = appendIndent(buf, depth)
		buf = appendEscaped(buf, strings.TrimSpace(n.Text))
		return append(buf, '\n')
	case Comment:
		buf = appendIndent(buf, depth)
		buf = append(buf, "<!--"...)
		buf = append(buf, n.Text...)
		return append(buf, "-->\n"...)
	}
	buf = appendIndent(buf, depth)
	buf = append(buf, '<')
	buf = append(buf, n.Name...)
	for _, a := range n.Attrs {
		// XML escaping, not Go %q escaping: backslashes and friends must
		// pass through verbatim.
		buf = append(buf, ' ')
		buf = append(buf, a.Name...)
		buf = append(buf, '=', '"')
		buf = appendEscaped(buf, a.Value)
		buf = append(buf, '"')
	}
	if len(n.Children) == 0 {
		return append(buf, "/>\n"...)
	}
	// A single text child is written inline for readability.
	if len(n.Children) == 1 && n.Children[0].Kind == Text {
		buf = append(buf, '>')
		buf = appendEscaped(buf, strings.TrimSpace(n.Children[0].Text))
		buf = append(buf, "</"...)
		buf = append(buf, n.Name...)
		return append(buf, ">\n"...)
	}
	buf = append(buf, ">\n"...)
	for _, c := range n.Children {
		buf = c.appendXML(buf, depth+1)
	}
	buf = appendIndent(buf, depth)
	buf = append(buf, "</"...)
	buf = append(buf, n.Name...)
	return append(buf, ">\n"...)
}

func appendIndent(buf []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		buf = append(buf, ' ', ' ')
	}
	return buf
}

// appendEscaped appends s with the four XML metacharacters escaped, and
// '\r' written as a character reference: a raw carriage return would come
// back from the parser as '\n', so the written bytes would not be a fixed
// point of parse-then-write.
func appendEscaped(buf []byte, s string) []byte {
	if !strings.ContainsAny(s, "&<>\"\r") {
		return append(buf, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			buf = append(buf, "&amp;"...)
		case '<':
			buf = append(buf, "&lt;"...)
		case '>':
			buf = append(buf, "&gt;"...)
		case '"':
			buf = append(buf, "&quot;"...)
		case '\r':
			buf = append(buf, "&#13;"...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// Canonical returns a canonical single-line serialization of the subtree in
// which attributes are sorted by name and inter-element whitespace is
// normalized. Two trees have equal Canonical strings iff they are Equal up to
// attribute order, making the string usable as a hash/index key.
func (n *Node) Canonical() string {
	var b strings.Builder
	canonical(&b, n)
	return b.String()
}

func canonical(b *strings.Builder, n *Node) {
	switch n.Kind {
	case Text:
		b.WriteString("#t(")
		b.WriteString(strings.TrimSpace(n.Text))
		b.WriteString(")")
		return
	case Comment:
		return // comments are not semantically significant
	}
	b.WriteString("<")
	b.WriteString(n.Name)
	attrs := make([]Attr, len(n.Attrs))
	copy(attrs, n.Attrs)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	for _, a := range attrs {
		b.WriteString(" ")
		b.WriteString(a.Name)
		b.WriteString("=")
		b.WriteString(a.Value)
	}
	b.WriteString(">")
	for _, c := range n.Children {
		canonical(b, c)
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteString(">")
}
