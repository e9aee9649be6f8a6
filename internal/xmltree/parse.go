package xmltree

import (
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads an XML document from r and returns its root element.
// Whitespace-only text nodes are dropped; other text is preserved
// verbatim. Processing instructions and directives are skipped. The whole
// input is read before parsing starts.
func Parse(r io.Reader) (*Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseString(string(data))
}

// ParseString is Parse over an in-memory document. No string in the
// returned tree shares memory with s.
func ParseString(s string) (*Node, error) {
	p := parser{s: s}
	return p.document()
}

// ParseUntil runs ParseString's scanner over s only as far as the start
// tag of the root element's first child element named name, and returns
// the root and that child as they stand there: names and attributes
// resolved exactly as ParseString resolves them, including the child
// tag's own namespace declarations, and no children. Nothing past that
// start tag is read. When the root has no such child the whole document
// is parsed and child is nil. An error means the scanned prefix is not
// well-formed, or, with no such child, that s is not.
func ParseUntil(s, name string) (root, child *Node, err error) {
	p := parser{s: s, until: name}
	if root, err = p.document(); err != nil {
		return nil, nil, err
	}
	return root, p.first, nil
}

// parser is one pass of the scanner over a whole document. Everything it
// holds that points into s is transient; strings stored in the tree are
// copies or constants.
type parser struct {
	s    string
	pos  int
	root *Node
	open []frame
	// kids collects the children of every open element, innermost last;
	// an element's children move into an exact-size slice when it closes.
	kids  []*Node
	attrs []Attr // the start tag being read; Name holds the raw name
	// ns holds the in-scope namespace declarations that can change a name
	// in the tree, innermost last: those binding a prefix to the URL
	// "xmlns", and those shadowing such a binding.
	ns  []nsDecl
	buf []byte // scratch for text that needs rewriting
	// until, when set, stops the scan at the start tag of the root's
	// first child element of that name, which is kept in first.
	until string
	first *Node
}

// frame is one open element.
type frame struct {
	node *Node
	raw  string // the start tag's name as written
	kids int    // len(parser.kids) when the element opened
	ns   int    // len(parser.ns) when the element opened
}

type nsDecl struct {
	prefix string // "" for the default namespace
	xmlns  bool   // bound to the URL "xmlns"
}

func (p *parser) errorf(at int, format string, args ...any) error {
	line := 1 + strings.Count(p.s[:min(at, len(p.s))], "\n")
	return fmt.Errorf("xmltree: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error { return p.errorf(len(p.s), "unexpected EOF") }

func (p *parser) document() (*Node, error) {
	for p.pos < len(p.s) && p.first == nil {
		var err error
		if p.s[p.pos] != '<' {
			err = p.text()
		} else if p.pos+1 == len(p.s) {
			err = p.eof()
		} else {
			switch p.s[p.pos+1] {
			case '/':
				err = p.endTag()
			case '?':
				err = p.procInst()
			case '!':
				err = p.bang()
			default:
				err = p.startTag()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if p.first != nil {
		return p.root, nil
	}
	if len(p.open) > 0 {
		return nil, p.errorf(len(p.s), "unexpected EOF: element <%s> not closed", p.open[len(p.open)-1].raw)
	}
	if p.root == nil {
		return nil, p.errorf(len(p.s), "empty document")
	}
	return p.root, nil
}

// space skips XML whitespace.
func (p *parser) space() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// name reads a name at p.pos: a run of ASCII name bytes and any bytes of
// multi-byte characters, which must then form a valid XML name.
func (p *parser) name(what string) (string, error) {
	start := p.pos
	i := start
	for i < len(p.s) && (p.s[i] >= utf8.RuneSelf || isNameByte(p.s[i])) {
		i++
	}
	if i == len(p.s) {
		return "", p.eof()
	}
	if i == start {
		return "", p.errorf(start, "expected %s", what)
	}
	n := p.s[start:i]
	if !isName(n) {
		return "", p.errorf(start, "invalid XML name: %s", n)
	}
	p.pos = i
	return n, nil
}

// expect consumes the byte c.
func (p *parser) expect(c byte, context string) error {
	if p.pos >= len(p.s) {
		return p.eof()
	}
	if p.s[p.pos] != c {
		return p.errorf(p.pos, "expected %q %s", c, context)
	}
	p.pos++
	return nil
}

func (p *parser) startTag() error {
	p.pos++ // '<'
	raw, err := p.name("element name after <")
	if err != nil {
		return err
	}
	if _, _, ok := splitName(raw); !ok {
		return p.errorf(p.pos, "expected element name after <")
	}
	nsStart := len(p.ns)
	p.attrs = p.attrs[:0]
	for {
		p.space()
		if p.pos >= len(p.s) {
			return p.eof()
		}
		c := p.s[p.pos]
		if c == '>' || c == '/' {
			p.pos++
			if c == '/' {
				if err := p.expect('>', "after / in element"); err != nil {
					return err
				}
			}
			return p.openElement(raw, nsStart, c == '/')
		}
		aname, err := p.name("attribute name in element")
		if err != nil {
			return err
		}
		prefix, local, ok := splitName(aname)
		if !ok {
			return p.errorf(p.pos, "expected attribute name in element")
		}
		p.space()
		if err := p.expect('=', "after attribute name"); err != nil {
			return err
		}
		p.space()
		if p.pos >= len(p.s) {
			return p.eof()
		}
		q := p.s[p.pos]
		if q != '"' && q != '\'' {
			return p.errorf(p.pos, "unquoted or missing attribute value in element")
		}
		p.pos++
		end := strings.IndexByte(p.s[p.pos:], q)
		if end < 0 {
			return p.eof()
		}
		seg := p.s[p.pos : p.pos+end]
		if lt := strings.IndexByte(seg, '<'); lt >= 0 {
			return p.errorf(p.pos+lt, "unescaped < inside quoted string")
		}
		value, err := p.chars(seg, p.pos, true)
		if err != nil {
			return err
		}
		p.pos += end + 1
		switch {
		case prefix == "xmlns":
			p.declare(local, value)
		case prefix == "" && local == "xmlns":
			p.declare("", value)
		}
		p.attrs = append(p.attrs, Attr{Name: aname, Value: value})
	}
}

// openElement builds the element whose start tag was just read. Names
// are resolved only now, because the tag's own declarations apply to
// them.
func (p *parser) openElement(raw string, nsStart int, empty bool) error {
	n := &Node{Kind: Element, Name: p.qualify(raw, true)}
	if len(p.attrs) > 0 {
		n.Attrs = make([]Attr, len(p.attrs))
		for i, a := range p.attrs {
			n.Attrs[i] = Attr{Name: p.qualify(a.Name, false), Value: a.Value}
		}
	}
	if len(p.open) == 0 {
		if p.root != nil {
			return p.errorf(p.pos, "multiple root elements")
		}
		p.root = n
	} else {
		p.kids = append(p.kids, n)
		if len(p.open) == 1 && n.Name == p.until {
			p.first = n
		}
	}
	if empty {
		p.ns = p.ns[:nsStart]
		return nil
	}
	p.open = append(p.open, frame{node: n, raw: raw, kids: len(p.kids), ns: nsStart})
	return nil
}

func (p *parser) endTag() error {
	p.pos += 2 // "</"
	raw, err := p.name("element name after </")
	if err != nil {
		return err
	}
	p.space()
	if err := p.expect('>', "to end the end tag"); err != nil {
		return err
	}
	if len(p.open) == 0 {
		return p.errorf(p.pos, "unexpected end element </%s>", raw)
	}
	f := p.open[len(p.open)-1]
	if raw != f.raw {
		return p.errorf(p.pos, "element <%s> closed by </%s>", f.raw, raw)
	}
	p.open = p.open[:len(p.open)-1]
	if k := len(p.kids) - f.kids; k > 0 {
		f.node.Children = make([]*Node, k)
		copy(f.node.Children, p.kids[f.kids:])
		p.kids = p.kids[:f.kids]
	}
	p.ns = p.ns[:f.ns]
	return nil
}

// text reads character data up to the next '<' or the end of input.
func (p *parser) text() error {
	start := p.pos
	end := strings.IndexByte(p.s[start:], '<')
	if end < 0 {
		end = len(p.s)
	} else {
		end += start
	}
	p.pos = end
	seg := p.s[start:end]
	if isXMLSpace(seg) {
		return nil
	}
	if k := strings.Index(seg, "]]>"); k >= 0 {
		return p.errorf(start+k, "unescaped ]]> not in CDATA section")
	}
	s, err := p.chars(seg, start, true)
	if err != nil {
		return err
	}
	p.addText(s)
	return nil
}

// addText adds a text node unless it is outside the root or blank.
func (p *parser) addText(s string) {
	if len(p.open) > 0 && strings.TrimSpace(s) != "" {
		p.kids = append(p.kids, &Node{Kind: Text, Text: s})
	}
}

// bang reads the construct after "<!": a comment, a CDATA section or a
// directive.
func (p *parser) bang() error {
	i := p.pos + 2
	if i >= len(p.s) {
		return p.eof()
	}
	switch p.s[i] {
	case '-':
		return p.comment(i + 1)
	case '[':
		if !strings.HasPrefix(p.s[i+1:], "CDATA[") {
			return p.errorf(i, "invalid <![ sequence")
		}
		start := i + 1 + len("CDATA[")
		k := strings.Index(p.s[start:], "]]>")
		if k < 0 {
			return p.errorf(len(p.s), "unexpected EOF in CDATA section")
		}
		s, err := p.chars(p.s[start:start+k], start, false)
		if err != nil {
			return err
		}
		p.pos = start + k + len("]]>")
		p.addText(s)
		return nil
	}
	return p.directive(i + 1)
}

// comment reads a comment whose "<!-" ends just before i.
func (p *parser) comment(i int) error {
	if i >= len(p.s) {
		return p.eof()
	}
	if p.s[i] != '-' {
		return p.errorf(i, "invalid sequence <!- not part of <!--")
	}
	start := i + 1
	k := strings.Index(p.s[start:], "--")
	if k < 0 || start+k+2 >= len(p.s) {
		return p.eof()
	}
	if p.s[start+k+2] != '>' {
		return p.errorf(start+k, `invalid sequence "--" not allowed in comments`)
	}
	if len(p.open) > 0 {
		p.kids = append(p.kids, &Node{Kind: Comment, Text: strings.Clone(p.s[start : start+k])})
	}
	p.pos = start + k + 3
	return nil
}

// directive skips a directive such as <!DOCTYPE ...>. Its first byte, just
// before i, is taken without inspection. Quoted '<' and '>' do not nest,
// comments inside are skipped whole, and a '<' that does not open a
// comment nests until its '>'. This follows encoding/xml byte for byte,
// including where a failed "<!--" match resumes.
func (p *parser) directive(i int) error {
	s := p.s
	var inquote byte
	depth := 0
	for {
		if i >= len(s) {
			return p.eof()
		}
		b := s[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			p.pos = i
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for k := 0; k < len("!--"); k++ {
				if i >= len(s) {
					return p.eof()
				}
				b = s[i]
				i++
				if b != "!--"[k] {
					depth++
					// The mismatching byte is handled as if read
					// normally, minus the check for the closing '>'.
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if i >= len(s) {
					return p.eof()
				}
				b = s[i]
				i++
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// procInst reads a processing instruction and checks the XML declaration.
func (p *parser) procInst() error {
	p.pos += 2 // "<?"
	target, err := p.name("target name after <?")
	if err != nil {
		return err
	}
	p.space()
	k := strings.Index(p.s[p.pos:], "?>")
	if k < 0 {
		return p.eof()
	}
	content := p.s[p.pos : p.pos+k]
	at := p.pos
	p.pos += k + 2
	if target != "xml" {
		return nil
	}
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return p.errorf(at, "unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return p.errorf(at, "unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam extracts param="value" from a processing instruction's
// content the way encoding/xml does: the first occurrence of param= that
// is followed by a quote wins.
func procInstParam(param, s string) string {
	param += "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// chars returns a copy of character data seg, which starts at offset at,
// with line ends normalised to '\n' and, when entities is set, the five
// predefined entities and character references replaced. The result must
// consist of XML characters.
func (p *parser) chars(seg string, at int, entities bool) (string, error) {
	special := "\r"
	if entities {
		special = "\r&"
	}
	var out string
	j := strings.IndexAny(seg, special)
	if j < 0 {
		out = strings.Clone(seg)
	} else {
		buf := append(p.buf[:0], seg[:j]...)
		var prev byte // previous byte, forgotten across an entity
		for i := j; i < len(seg); {
			c := seg[i]
			switch {
			case c == '&' && entities:
				r, n := charRef(seg[i:])
				if n == 0 {
					return "", p.errorf(at+i, "invalid character entity %.10q", seg[i:])
				}
				// A surrogate becomes U+FFFD, as in encoding/xml.
				buf = utf8.AppendRune(buf, r)
				i += n
				prev = 0
				continue
			case c == '\r':
				buf = append(buf, '\n')
			case c == '\n' && prev == '\r':
			default:
				buf = append(buf, c)
			}
			prev = c
			i++
		}
		p.buf = buf
		out = string(buf)
	}
	if k := invalidChar(out); k >= 0 {
		return "", p.errorf(at, "invalid UTF-8 or illegal character %.1q", out[k:])
	}
	return out, nil
}

// charRef decodes the entity or character reference at the start of s
// (which begins with '&') and returns its rune and length, or a zero
// length if it is not one this parser accepts.
func charRef(s string) (rune, int) {
	for _, e := range predefined {
		if strings.HasPrefix(s, e.ref) {
			return e.r, len(e.ref)
		}
	}
	if len(s) < 2 || s[1] != '#' {
		return 0, 0
	}
	i, base := 2, rune(10)
	if i < len(s) && s[i] == 'x' {
		i, base = 3, 16
	}
	start := i
	var n rune
	for ; i < len(s); i++ {
		d := digitVal(s[i])
		if d >= base {
			break
		}
		if n <= unicode.MaxRune {
			n = n*base + d
		}
	}
	if i == start || i == len(s) || s[i] != ';' || n > unicode.MaxRune {
		return 0, 0
	}
	return n, i + 1
}

var predefined = []struct {
	ref string
	r   rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}}

// digitVal returns the value of hex digit c, or 16 if c is not one.
func digitVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// invalidChar returns the offset of the first byte of s that is not
// valid UTF-8 or starts a character outside the XML Char production, or
// -1.
func invalidChar(s string) int {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 ||
			!(r >= 0x80 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= unicode.MaxRune) {
			return i
		}
		i += size
	}
	return -1
}

// isXMLSpace reports whether s is non-empty and only XML whitespace.
func isXMLSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return len(s) > 0
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// isName reports whether s, a run of name bytes, is an XML name.
func isName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return isNameUnicode(s)
		}
	}
	// Every ASCII name byte is a NameChar; only the first byte is
	// narrower.
	c := s[0]
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

func isNameUnicode(s string) bool {
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			return false
		}
		if !unicode.Is(nameStart, c) && (i == 0 || !unicode.Is(nameChar, c)) {
			return false
		}
		i += size
	}
	return true
}

// splitName splits a raw name at its colon into prefix and local part.
// A name with a leading or trailing colon has no prefix; one with two
// colons is not a valid qualified name.
func splitName(raw string) (prefix, local string, ok bool) {
	i := strings.IndexByte(raw, ':')
	switch {
	case i < 0:
		return "", raw, true
	case strings.IndexByte(raw[i+1:], ':') >= 0:
		return "", "", false
	case i == 0 || i == len(raw)-1:
		return "", raw, true
	}
	return raw[:i], raw[i+1:], true
}

// qualify turns a raw element or attribute name into its name in the
// tree. Prefixes are dropped, except that a name whose namespace is
// "xmlns" — an xmlns:p declaration, or a prefix (or, for elements, the
// default namespace) bound to the URL "xmlns" — is written "xmlns:" +
// local. Unprefixed attributes are in no namespace, and the "xml" prefix
// is bound to its own URL.
func (p *parser) qualify(raw string, element bool) string {
	prefix, local, _ := splitName(raw)
	switch {
	case prefix == "xmlns":
		return intern(raw)
	case prefix == "" && (!element || local == "xmlns"), prefix == "xml":
	case p.boundToXMLNS(prefix):
		return "xmlns:" + local
	}
	return intern(local)
}

func (p *parser) declare(prefix, url string) {
	if url == "xmlns" || p.boundToXMLNS(prefix) {
		p.ns = append(p.ns, nsDecl{prefix: prefix, xmlns: url == "xmlns"})
	}
}

// boundToXMLNS reports whether prefix's innermost declaration binds it to
// the URL "xmlns".
func (p *parser) boundToXMLNS(prefix string) bool {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].xmlns
		}
	}
	return false
}

// intern returns the constant for a well-known SBML or MathML name, or a
// copy of s.
func intern(s string) string {
	if c, ok := wellKnown[s]; ok {
		return c
	}
	return strings.Clone(s)
}

var wellKnown = func() map[string]string {
	names := []string{
		// SBML elements.
		"sbml", "model", "notes", "annotation", "message",
		"listOfFunctionDefinitions", "functionDefinition",
		"listOfUnitDefinitions", "unitDefinition", "listOfUnits", "unit",
		"listOfCompartmentTypes", "compartmentType",
		"listOfSpeciesTypes", "speciesType",
		"listOfCompartments", "compartment", "listOfSpecies", "species",
		"listOfParameters", "parameter", "listOfLocalParameters", "localParameter",
		"listOfInitialAssignments", "initialAssignment",
		"listOfRules", "algebraicRule", "assignmentRule", "rateRule",
		"listOfConstraints", "constraint",
		"listOfReactions", "reaction", "listOfReactants", "listOfProducts",
		"listOfModifiers", "speciesReference", "modifierSpeciesReference",
		"stoichiometryMath", "kineticLaw",
		"listOfEvents", "event", "trigger", "delay",
		"listOfEventAssignments", "eventAssignment",
		// SBML attributes.
		"xmlns", "level", "version", "id", "name", "metaid", "sboTerm",
		"compartment", "compartmentType", "speciesType", "spatialDimensions",
		"size", "units", "outside", "constant", "initialAmount",
		"initialConcentration", "substanceUnits", "hasOnlySubstanceUnits",
		"boundaryCondition", "charge", "value", "symbol", "variable",
		"reversible", "fast", "stoichiometry", "kind", "exponent", "scale",
		"multiplier",
		// MathML elements and attributes.
		"math", "apply", "ci", "cn", "csymbol", "lambda", "bvar",
		"piecewise", "piece", "otherwise", "sep", "degree", "logbase",
		"type", "encoding", "definitionURL",
		"plus", "minus", "times", "divide", "power", "root", "abs", "exp",
		"ln", "log", "floor", "ceiling", "factorial",
		"eq", "neq", "gt", "lt", "geq", "leq", "and", "or", "xor", "not",
		"sin", "cos", "tan", "sec", "csc", "cot", "arcsin", "arccos",
		"arctan", "sinh", "cosh", "tanh", "min", "max", "gcd", "lcm",
		"pi", "exponentiale", "true", "false", "notanumber", "infinity",
	}
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}()
