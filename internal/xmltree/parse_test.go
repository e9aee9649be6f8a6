package xmltree_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/xmltree"
)

// edgeDocs are inputs where the scanner most easily parts ways with
// encoding/xml. Each must give the reference's verdict and tree.
var edgeDocs = []string{
	"",
	"<a><b></b>",
	"not xml at all <",
	"<a/><b/>",
	`<s id="A" name="x"/>`,
	`<l><s id="A"/><s id="B"/></l>`,
	`<s id="A"><!-- hello --></s>`,
	"<a>x\r\ny\rz\r\r\n</a>",
	"<a v=\"1\r\n2\r3\">\r</a>",
	`<a v="&lt;&gt;&amp;&apos;&quot;">&lt;&#65;&#x42;&#x10FFFF;&#xD800;</a>`,
	`<a>&#0;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#;</a>`,
	`<a>&nbsp;</a>`,
	`<a>&lt</a>`,
	`<a>&#32;</a>`,
	"<a>&#xA0;</a>",
	"<a>\u00a0</a>",
	`<a xmlns:m="xmlns"><m:b m:c="1" d="2"/></a>`,
	`<a xmlns="xmlns"><b/><xmlns/></a>`,
	`<m:a xmlns:m="xmlns" xmlns:m="u"/>`,
	`<a xmlns:m="xmlns"><b xmlns:m="u"><m:c/></b><m:d/></a>`,
	`<xml:a xmlns:xml="xmlns"/>`,
	`<xmlns:a xmlns:b="c"/>`,
	`<a:b:c/>`,
	`<:a/>`,
	`<a:/>`,
	`<a xmlns:="x"/>`,
	`<p:a></q:a>`,
	`<p:a></p:a>`,
	`<a></a >`,
	`<a></a/>`,
	`<a b="1"c="2"/>`,
	`<a b = '1' />`,
	`<a b=1/>`,
	`<a b/>`,
	`<a b="<"/>`,
	`<a b="]]>"/>`,
	`<a>]]></a>`,
	`<a>]]&gt;</a>`,
	`<a><![CDATA[x<y>&amp;]]]></a>`,
	`<a><![CDATA[]]></a>`,
	"<a>x<![CDATA[ y ]]>z<!--c-->w</a>",
	`<a><![CDAT[x]]></a>`,
	`<a><![CDATA[x</a>`,
	`<a><!-- a -- b --></a>`,
	`<a><!-- a ---></a>`,
	`<a><!----></a>`,
	`<a><!---></a>`,
	`<a><!-x--></a>`,
	"<!DOCTYPE sbml [\n  <!ENTITY e \"v>\">\n  <!-- c > -->\n]>\n<a>&e;</a>",
	"<!DOCTYPE sbml [<!ENTITY e 'v'>]><a/>",
	`<!><A/>`,
	`<!D<>><a/>`,
	`<!D<!-x>><a/>`,
	`<!D "'>" '">' ><a/>`,
	"\ufeff<a/>",
	"\ufeff<?xml version=\"1.0\"?><a/>",
	`<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<a><?xml version="2.0"?></a>`,
	`<?XML version="2.0"?><a/>`,
	`<?xml-stylesheet href="x"?><a/>`,
	`<? x?><a/>`,
	`<?x?><a/>`,
	`<?x ?><a/>`,
	"<a>\x00</a>",
	"<a>\xff</a>",
	"<a b=\"\xc3\"/>",
	"<a>\xef\xbf\xbf</a>",
	"<a>\xef\xbf\xbd</a>",
	"<\xc3\xa9/>",
	"<a\xcc\x80/>",
	"<\xcc\x80/>",
	"<a\xff/>",
	"<1a/>",
	"<a.b-c_d/>",
	"< a/>",
	"<a/>x",
	"<a/><!--x-->  ",
	"x<a/>",
	"</a>",
	"<a/></a>",
	"<a>",
	"<",
	"<a",
	"<a b",
	`<a b="`,
	`<m:a xmlns:m="xml&#110;s"/>`,
	`<a xmlns:m="xmlns" m:b="1" xmlns:m="u"/>`,
	`<a b="x" b="y"/>`,
	`<a>&#x0041;&#00000000000000000000065;</a>`,
	`<a>&#99999999999999999999;</a>`,
	`<?xml version=1.1?><a/>`,
	`<?xml encoding="utf-8" version="1.0"?><a/>`,
	"<a/ >",
	"<a></a\n>",
	"<a\n\tb='1'\r\n/>",
	"<a><b/>text<c>more</c> tail </a>",
	"<a>\n  <b/>\n</a>\n",
}

// FuzzParse checks the scanner against the encoding/xml reference: both
// must accept or reject the same input, and when both accept, their trees
// must be identical.
func FuzzParse(f *testing.F) {
	for _, d := range edgeDocs {
		f.Add(d)
	}
	f.Add(xmltree.Sample)
	for _, d := range generatedDocs() {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkAgainstReference(t, data)
	})
}

func checkAgainstReference(t *testing.T, data string) {
	t.Helper()
	got, err := xmltree.ParseString(data)
	want, werr := xmltree.ReferenceParse(strings.NewReader(data))
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseString(%q): err = %v, reference err = %v", data, err, werr)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "xmltree: parse: line ") {
			t.Fatalf("ParseString(%q): error %q lacks the parse prefix and line", data, err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseString(%q) tree differs from reference:\n got %s\nwant %s", data, dump(got), dump(want))
	}
}

func TestParseMatchesReference(t *testing.T) {
	docs := append(append([]string{xmltree.Sample}, edgeDocs...), generatedDocs()...)
	for _, d := range docs {
		checkAgainstReference(t, d)
	}
}

func TestParseReader(t *testing.T) {
	for _, d := range generatedDocs() {
		got, err := xmltree.Parse(strings.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := xmltree.ParseString(d)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("Parse and ParseString trees differ")
		}
	}
}

// TestParseUntilMatchesParseString pins ParseUntil to the full parse:
// wherever ParseString accepts a document, ParseUntil gives the same root
// name and attributes and the root's first child of each name, with the
// same name and attributes and no children, or nil when there is none.
func TestParseUntilMatchesParseString(t *testing.T) {
	docs := append(append([]string{xmltree.Sample}, edgeDocs...), generatedDocs()...)
	docs = append(docs,
		`<r><x:b xmlns:x="xmlns" id="own"/><b id="real"><c/></b><b id="second"/></r>`,
		`<r><a><b id="deep"/></a><b xmlns:p="xmlns" p:id="shadow" id="real"/></r>`)
	for _, d := range docs {
		want, err := xmltree.ParseString(d)
		if err != nil {
			continue
		}
		for _, name := range []string{"b", "s", "model", "listOfSpecies", "nothing"} {
			root, child, err := xmltree.ParseUntil(d, name)
			if err != nil {
				t.Fatalf("ParseUntil(%q, %q): %v", d, name, err)
			}
			if root.Name != want.Name || !reflect.DeepEqual(root.Attrs, want.Attrs) {
				t.Fatalf("ParseUntil(%q, %q) root %s, ParseString %s", d, name, dump(root), dump(want))
			}
			wantChild := want.Child(name)
			if wantChild == nil {
				if child != nil {
					t.Fatalf("ParseUntil(%q, %q) found %s, ParseString has no such child", d, name, dump(child))
				}
				continue
			}
			if child == nil || child.Name != wantChild.Name || !reflect.DeepEqual(child.Attrs, wantChild.Attrs) ||
				child.Children != nil || root.Children != nil {
				t.Fatalf("ParseUntil(%q, %q) root %s child %v, want child %s", d, name, dump(root), child, dump(wantChild))
			}
		}
	}
}

// TestParseCopiesStrings pins that no string in a parsed tree points into
// the input. Trees outlive their input (served models keep their strings
// through Model.Clone), so an aliasing substring would keep a whole
// request body alive.
func TestParseCopiesStrings(t *testing.T) {
	docs := append(generatedDocs(),
		"<a xmlns:m=\"xmlns\" v=\"x&amp;y\" w=\"plain\"><m:b/>text<![CDATA[cdata]]><!--note-->\r\nmore</a>")
	for _, d := range docs {
		input := strings.Clone(d)
		root, err := xmltree.ParseString(input)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(input)))
		hi := lo + uintptr(len(input))
		check := func(what, s string) {
			if s == "" {
				return
			}
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
				t.Errorf("%s %q aliases the input", what, s)
			}
		}
		root.Walk(func(n *xmltree.Node, _ int) bool {
			check("name", n.Name)
			check("text", n.Text)
			for _, a := range n.Attrs {
				check("attribute name", a.Name)
				check("attribute value", a.Value)
			}
			return true
		})
	}
}

// TestParseAllocs pins the scanner at no more than half the reference's
// allocations on a generated SBML document.
func TestParseAllocs(t *testing.T) {
	doc := sbml.WrapModel(biomodels.Generate(biomodels.Config{ID: "allocs", Nodes: 40, Edges: 60, Seed: 3, Decorate: true})).String()
	scanner := testing.AllocsPerRun(10, func() {
		if _, err := xmltree.ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	reference := testing.AllocsPerRun(10, func() {
		if _, err := xmltree.ReferenceParse(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per parse: scanner %.0f, reference %.0f", scanner, reference)
	if scanner > reference/2 {
		t.Errorf("scanner makes %.0f allocations per parse, more than half the reference's %.0f", scanner, reference)
	}
}

func BenchmarkParse(b *testing.B) {
	for _, nodes := range []int{10, 40, 160} {
		doc := sbml.WrapModel(biomodels.Generate(biomodels.Config{
			ID: "bench", Nodes: nodes, Edges: nodes * 3 / 2, Seed: 1, Decorate: true})).String()
		b.Run(fmt.Sprintf("nodes=%d/impl=scanner", nodes), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for b.Loop() {
				if _, err := xmltree.ParseString(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nodes=%d/impl=reference", nodes), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for b.Loop() {
				if _, err := xmltree.ReferenceParse(strings.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// generatedDocs returns generated SBML documents of a few sizes, plain and
// decorated with the optional component types.
func generatedDocs() []string {
	var docs []string
	for i, nodes := range []int{3, 12, 30} {
		for _, decorate := range []bool{false, true} {
			m := biomodels.Generate(biomodels.Config{
				ID: fmt.Sprintf("gen%d", i), Nodes: nodes, Edges: nodes + nodes/2, Seed: int64(i + 1), Decorate: decorate})
			docs = append(docs, sbml.WrapModel(m).String())
		}
	}
	return docs
}

func dump(n *xmltree.Node) string {
	var b strings.Builder
	n.Walk(func(n *xmltree.Node, depth int) bool {
		fmt.Fprintf(&b, "\n%s%v %q %q %q", strings.Repeat("  ", depth), n.Kind, n.Name, n.Attrs, n.Text)
		return true
	})
	return b.String()
}
