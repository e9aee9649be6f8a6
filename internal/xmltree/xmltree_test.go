package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<?xml version="1.0" encoding="UTF-8"?>
<sbml xmlns="http://www.sbml.org/sbml/level2" level="2" version="1">
  <model id="m1" name="test model">
    <listOfSpecies>
      <species id="A" compartment="c" initialConcentration="1"/>
      <species id="B" compartment="c" initialConcentration="0"/>
    </listOfSpecies>
    <listOfReactions>
      <reaction id="r1">
        <notes>forward <!-- inline --> reaction</notes>
      </reaction>
    </listOfReactions>
  </model>
</sbml>`

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	n, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return n
}

func TestParseBasicStructure(t *testing.T) {
	root := mustParse(t, sample)
	if root.Name != "sbml" {
		t.Fatalf("root = %q, want sbml", root.Name)
	}
	if got := root.Attr("level"); got != "2" {
		t.Errorf("level attr = %q, want 2", got)
	}
	model := root.Child("model")
	if model == nil {
		t.Fatal("no model child")
	}
	if got := model.Attr("name"); got != "test model" {
		t.Errorf("model name = %q", got)
	}
	species := root.FindAll("model/listOfSpecies/species")
	if len(species) != 2 {
		t.Fatalf("found %d species, want 2", len(species))
	}
	if species[0].Attr("id") != "A" || species[1].Attr("id") != "B" {
		t.Errorf("species order lost: %q, %q", species[0].Attr("id"), species[1].Attr("id"))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"unclosed", "<a><b></b>"},
		{"junk", "not xml at all <"},
		{"two roots", "<a/><b/>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	root := mustParse(t, sample)
	out := root.String()
	again := mustParse(t, out)
	if !Equal(root, again) {
		t.Fatalf("round trip not equal:\n%s\nvs\n%s", out, again.String())
	}
}

func TestAttrOperations(t *testing.T) {
	n := NewElement("species")
	if n.HasAttr("id") {
		t.Error("new element should have no attrs")
	}
	n.SetAttr("id", "A")
	n.SetAttr("name", "glucose")
	n.SetAttr("id", "B") // overwrite
	if got := n.Attr("id"); got != "B" {
		t.Errorf("id = %q, want B", got)
	}
	if len(n.Attrs) != 2 {
		t.Errorf("len(Attrs) = %d, want 2", len(n.Attrs))
	}
	n.RemoveAttr("name")
	if n.HasAttr("name") {
		t.Error("name not removed")
	}
	n.RemoveAttr("missing") // no-op must not panic
}

func TestFindMissingPath(t *testing.T) {
	root := mustParse(t, sample)
	if got := root.Find("model/listOfNothing/x"); got != nil {
		t.Errorf("Find on missing path = %v, want nil", got)
	}
	if got := root.FindAll("model/listOfNothing"); got != nil {
		t.Errorf("FindAll on missing path = %v, want nil", got)
	}
}

func TestInnerText(t *testing.T) {
	root := mustParse(t, sample)
	notes := root.Find("model/listOfReactions/reaction/notes")
	if notes == nil {
		t.Fatal("no notes element")
	}
	got := notes.InnerText()
	if !strings.Contains(got, "forward") || !strings.Contains(got, "reaction") {
		t.Errorf("InnerText = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	root := mustParse(t, sample)
	cp := root.Clone()
	if !Equal(root, cp) {
		t.Fatal("clone not equal to original")
	}
	cp.Find("model").SetAttr("id", "changed")
	if root.Find("model").Attr("id") == "changed" {
		t.Error("mutating clone affected original")
	}
	cp.Find("model/listOfSpecies").Children[0].SetAttr("id", "Z")
	if root.FindAll("model/listOfSpecies/species")[0].Attr("id") == "Z" {
		t.Error("mutating clone's grandchildren affected original")
	}
}

func TestEqualIgnoresAttrOrder(t *testing.T) {
	a := mustParse(t, `<s id="A" name="x"/>`)
	b := mustParse(t, `<s name="x" id="A"/>`)
	if !Equal(a, b) {
		t.Error("Equal should ignore attribute order")
	}
	c := mustParse(t, `<s name="y" id="A"/>`)
	if Equal(a, c) {
		t.Error("Equal should detect differing attribute values")
	}
}

func TestEqualDetectsChildOrder(t *testing.T) {
	a := mustParse(t, `<l><s id="A"/><s id="B"/></l>`)
	b := mustParse(t, `<l><s id="B"/><s id="A"/></l>`)
	if Equal(a, b) {
		t.Error("Equal must be order-sensitive on children")
	}
}

func TestCanonicalKeyEquality(t *testing.T) {
	a := mustParse(t, `<s id="A" name="x"><k v="1"/></s>`)
	b := mustParse(t, `<s name="x" id="A"><k v="1"/></s>`)
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	c := mustParse(t, `<s name="x" id="A"><k v="2"/></s>`)
	if a.Canonical() == c.Canonical() {
		t.Error("canonical forms should differ for different values")
	}
}

func TestCanonicalIgnoresComments(t *testing.T) {
	a := mustParse(t, `<s id="A"><!-- hello --></s>`)
	b := mustParse(t, `<s id="A"/>`)
	if a.Canonical() != b.Canonical() {
		t.Error("comments should not affect canonical form")
	}
}

func TestCountAndWalk(t *testing.T) {
	root := mustParse(t, sample)
	var walked int
	root.Walk(func(n *Node, depth int) bool {
		walked++
		if depth > 10 {
			t.Fatalf("depth %d too large", depth)
		}
		return true
	})
	if walked != root.Count() {
		t.Errorf("Walk visited %d, Count = %d", walked, root.Count())
	}
	// Walk with early pruning must visit fewer nodes.
	var pruned int
	root.Walk(func(n *Node, depth int) bool {
		pruned++
		return n.Name != "model"
	})
	if pruned >= walked {
		t.Errorf("pruned walk %d should be < full walk %d", pruned, walked)
	}
}

func TestRemoveChild(t *testing.T) {
	root := mustParse(t, sample)
	list := root.Find("model/listOfSpecies")
	first := list.Children[0]
	if !list.RemoveChild(first) {
		t.Fatal("RemoveChild returned false")
	}
	if len(list.ChildElements("species")) != 1 {
		t.Error("child not removed")
	}
	if list.RemoveChild(first) {
		t.Error("second RemoveChild should return false")
	}
}

func TestEscaping(t *testing.T) {
	n := NewElement("p")
	n.SetAttr("v", "a<b>&\"c\rd")
	n.AppendChild(NewText("x < y &\r z"))
	out := n.String()
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped output: %v\n%s", err, out)
	}
	if got := re.Attr("v"); got != "a<b>&\"c\rd" {
		t.Errorf("attr round trip = %q", got)
	}
	if got := re.InnerText(); got != "x < y &\r z" {
		t.Errorf("text round trip = %q", got)
	}
}

// genTree builds a small deterministic tree from a seed; used by the
// property tests below.
func genTree(seed int64, depth int) *Node {
	n := NewElement("n")
	n.SetAttr("a", string(rune('a'+byte(seed%26))))
	if depth <= 0 {
		return n
	}
	k := int(seed%3) + 1
	for i := 0; i < k; i++ {
		n.AppendChild(genTree(seed/3+int64(i)*7+1, depth-1))
	}
	return n
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		tr := genTree(seed%1000, int(seed%4))
		return Equal(tr, tr.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripPreservesCanonical(t *testing.T) {
	f := func(seed int64) bool {
		tr := genTree(seed%1000, int(seed%4))
		re, err := ParseString(tr.String())
		if err != nil {
			return false
		}
		return tr.Canonical() == re.Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
