package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Exported for the external tests in parse_test.go.
var (
	ReferenceParse = referenceParse
	Sample         = sample
)

// referenceParse is the encoding/xml token loop that Parse replaced, kept
// verbatim as the oracle the scanner is tested and fuzzed against.
func referenceParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Kind: Element, Name: qualified(t.Name)}
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: qualified(a.Name), Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside root
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, &Node{Kind: Text, Text: s})
		case xml.Comment:
			if len(stack) == 0 {
				continue
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, &Node{Kind: Comment, Text: string(t)})
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %q", stack[len(stack)-1].Name)
	}
	return root, nil
}

func qualified(n xml.Name) string {
	// encoding/xml resolves prefixes to namespace URLs in Name.Space. SBML
	// uses a handful of well-known namespaces; map them back to conventional
	// prefixes so serialization stays readable, and ignore the default
	// namespace entirely.
	switch n.Space {
	case "", "http://www.sbml.org/sbml/level2", "http://www.sbml.org/sbml/level2/version4",
		"http://www.sbml.org/sbml/level3/version1/core", "http://www.w3.org/1998/Math/MathML":
		return n.Local
	case "xmlns":
		return "xmlns:" + n.Local
	default:
		return n.Local
	}
}
