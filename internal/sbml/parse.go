package sbml

import (
	"fmt"
	"io"
	"strconv"

	"sbmlcompose/internal/mathml"
	"sbmlcompose/internal/units"
	"sbmlcompose/internal/xmltree"
)

// Namespace is the SBML Level 2 XML namespace emitted by the writer.
const Namespace = "http://www.sbml.org/sbml/level2/version4"

// Parse reads an SBML document.
func Parse(r io.Reader) (*Document, error) {
	return fromTree(xmltree.Parse(r))
}

// ParseString parses an in-memory SBML document.
func ParseString(s string) (*Document, error) {
	return fromTree(xmltree.ParseString(s))
}

// ModelID returns the id ParseString(s) gives the document's model,
// reading s only as far as the model's start tag: the id attribute of the
// first <model> child of an <sbml> root. It is "" when that prefix does
// not parse, the root is not <sbml> or has no <model> child, or the model
// has no id. Past the prefix nothing is checked,
// so a document ParseString rejects can still have a non-empty ModelID.
func ModelID(s string) string {
	root, model, err := xmltree.ParseUntil(s, "model")
	if err != nil || root.Name != "sbml" || model == nil {
		return ""
	}
	return model.Attr("id")
}

func fromTree(root *xmltree.Node, err error) (*Document, error) {
	if err != nil {
		return nil, fmt.Errorf("sbml: %w", err)
	}
	return FromXML(root)
}

// FromXML converts a parsed XML tree into a Document.
func FromXML(root *xmltree.Node) (*Document, error) {
	if root.Name != "sbml" {
		return nil, fmt.Errorf("sbml: root element is <%s>, want <sbml>", root.Name)
	}
	doc := &Document{Level: 2, Version: 4}
	if v := root.Attr("level"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sbml: bad level %q", v)
		}
		doc.Level = n
	}
	if v := root.Attr("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sbml: bad version %q", v)
		}
		doc.Version = n
	}
	modelNode := root.Child("model")
	if modelNode == nil {
		return nil, fmt.Errorf("sbml: document has no <model>")
	}
	m, err := parseModel(modelNode)
	if err != nil {
		return nil, err
	}
	doc.Model = m
	return doc, nil
}

func parseModel(n *xmltree.Node) (*Model, error) {
	m := &Model{ID: n.Attr("id"), Name: n.Attr("name")}
	if notes := n.Child("notes"); notes != nil {
		m.Notes = notes.InnerText()
	}
	type section struct {
		list  string
		child string
		parse func(*Model, *xmltree.Node) error
	}
	sections := []section{
		{"listOfFunctionDefinitions", "functionDefinition", parseFunctionDefinition},
		{"listOfUnitDefinitions", "unitDefinition", parseUnitDefinition},
		{"listOfCompartmentTypes", "compartmentType", parseCompartmentType},
		{"listOfSpeciesTypes", "speciesType", parseSpeciesType},
		{"listOfCompartments", "compartment", parseCompartment},
		{"listOfSpecies", "species", parseSpecies},
		{"listOfParameters", "parameter", parseGlobalParameter},
		{"listOfInitialAssignments", "initialAssignment", parseInitialAssignment},
		{"listOfRules", "", parseRule}, // rules match three element names
		{"listOfConstraints", "constraint", parseConstraint},
		{"listOfReactions", "reaction", parseReaction},
		{"listOfEvents", "event", parseEvent},
	}
	for _, sec := range sections {
		list := n.Child(sec.list)
		if list == nil {
			continue
		}
		for _, c := range list.ChildElements(sec.child) {
			if err := sec.parse(m, c); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func parseMathChild(n *xmltree.Node, context string) (mathml.Expr, error) {
	mathNode := n.Child("math")
	if mathNode == nil {
		return nil, nil
	}
	e, err := mathml.ParseXML(mathNode)
	if err != nil {
		return nil, fmt.Errorf("sbml: %s: %w", context, err)
	}
	return e, nil
}

func parseFunctionDefinition(m *Model, n *xmltree.Node) error {
	f := &FunctionDefinition{ID: n.Attr("id"), Name: n.Attr("name")}
	if f.ID == "" {
		return fmt.Errorf("sbml: functionDefinition without id")
	}
	e, err := parseMathChild(n, "functionDefinition "+f.ID)
	if err != nil {
		return err
	}
	lam, ok := e.(mathml.Lambda)
	if !ok {
		return fmt.Errorf("sbml: functionDefinition %s: math must be a lambda", f.ID)
	}
	f.Math = lam
	m.FunctionDefinitions = append(m.FunctionDefinitions, f)
	return nil
}

func parseUnitDefinition(m *Model, n *xmltree.Node) error {
	u := &UnitDefinition{ID: n.Attr("id"), Name: n.Attr("name")}
	if u.ID == "" {
		return fmt.Errorf("sbml: unitDefinition without id")
	}
	if list := n.Child("listOfUnits"); list != nil {
		for _, un := range list.ChildElements("unit") {
			unit := units.Unit{Kind: un.Attr("kind"), Exponent: 1, Multiplier: 1}
			if unit.Kind == "" {
				return fmt.Errorf("sbml: unit in %s without kind", u.ID)
			}
			var err error
			if v := un.Attr("exponent"); v != "" {
				if unit.Exponent, err = strconv.Atoi(v); err != nil {
					return fmt.Errorf("sbml: unit exponent %q in %s", v, u.ID)
				}
			}
			if v := un.Attr("scale"); v != "" {
				if unit.Scale, err = strconv.Atoi(v); err != nil {
					return fmt.Errorf("sbml: unit scale %q in %s", v, u.ID)
				}
			}
			if v := un.Attr("multiplier"); v != "" {
				if unit.Multiplier, err = strconv.ParseFloat(v, 64); err != nil {
					return fmt.Errorf("sbml: unit multiplier %q in %s", v, u.ID)
				}
			}
			u.Units = append(u.Units, unit)
		}
	}
	m.UnitDefinitions = append(m.UnitDefinitions, u)
	return nil
}

func parseCompartmentType(m *Model, n *xmltree.Node) error {
	if n.Attr("id") == "" {
		return fmt.Errorf("sbml: compartmentType without id")
	}
	m.CompartmentTypes = append(m.CompartmentTypes, &CompartmentType{ID: n.Attr("id"), Name: n.Attr("name")})
	return nil
}

func parseSpeciesType(m *Model, n *xmltree.Node) error {
	if n.Attr("id") == "" {
		return fmt.Errorf("sbml: speciesType without id")
	}
	m.SpeciesTypes = append(m.SpeciesTypes, &SpeciesType{ID: n.Attr("id"), Name: n.Attr("name")})
	return nil
}

func parseCompartment(m *Model, n *xmltree.Node) error {
	c := &Compartment{
		ID:                n.Attr("id"),
		Name:              n.Attr("name"),
		CompartmentType:   n.Attr("compartmentType"),
		SpatialDimensions: 3,
		Outside:           n.Attr("outside"),
		Units:             n.Attr("units"),
		Constant:          true,
	}
	if c.ID == "" {
		return fmt.Errorf("sbml: compartment without id")
	}
	var err error
	if v := n.Attr("spatialDimensions"); v != "" {
		if c.SpatialDimensions, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("sbml: compartment %s spatialDimensions %q", c.ID, v)
		}
	}
	if v := n.Attr("size"); v != "" {
		if c.Size, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("sbml: compartment %s size %q", c.ID, v)
		}
		c.HasSize = true
	}
	if v := n.Attr("constant"); v != "" {
		if c.Constant, err = strconv.ParseBool(v); err != nil {
			return fmt.Errorf("sbml: compartment %s constant %q", c.ID, v)
		}
	}
	m.Compartments = append(m.Compartments, c)
	return nil
}

func parseSpecies(m *Model, n *xmltree.Node) error {
	s := &Species{
		ID:             n.Attr("id"),
		Name:           n.Attr("name"),
		SpeciesType:    n.Attr("speciesType"),
		Compartment:    n.Attr("compartment"),
		SubstanceUnits: n.Attr("substanceUnits"),
	}
	if notes := n.Child("notes"); notes != nil {
		s.Notes = notes.InnerText()
	}
	if s.ID == "" {
		return fmt.Errorf("sbml: species without id")
	}
	var err error
	if v := n.Attr("initialAmount"); v != "" {
		if s.InitialAmount, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("sbml: species %s initialAmount %q", s.ID, v)
		}
		s.HasInitialAmount = true
	}
	if v := n.Attr("initialConcentration"); v != "" {
		if s.InitialConcentration, err = strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("sbml: species %s initialConcentration %q", s.ID, v)
		}
		s.HasInitialConcentration = true
	}
	for attr, dst := range map[string]*bool{
		"hasOnlySubstanceUnits": &s.HasOnlySubstanceUnits,
		"boundaryCondition":     &s.BoundaryCondition,
		"constant":              &s.Constant,
	} {
		if v := n.Attr(attr); v != "" {
			if *dst, err = strconv.ParseBool(v); err != nil {
				return fmt.Errorf("sbml: species %s %s=%q", s.ID, attr, v)
			}
		}
	}
	if v := n.Attr("charge"); v != "" {
		if s.Charge, err = strconv.Atoi(v); err != nil {
			return fmt.Errorf("sbml: species %s charge %q", s.ID, v)
		}
	}
	m.Species = append(m.Species, s)
	return nil
}

func parseParameterNode(n *xmltree.Node) (*Parameter, error) {
	p := &Parameter{
		ID:       n.Attr("id"),
		Name:     n.Attr("name"),
		Units:    n.Attr("units"),
		Constant: true,
	}
	if p.ID == "" {
		return nil, fmt.Errorf("sbml: parameter without id")
	}
	var err error
	if v := n.Attr("value"); v != "" {
		if p.Value, err = strconv.ParseFloat(v, 64); err != nil {
			return nil, fmt.Errorf("sbml: parameter %s value %q", p.ID, v)
		}
		p.HasValue = true
	}
	if v := n.Attr("constant"); v != "" {
		if p.Constant, err = strconv.ParseBool(v); err != nil {
			return nil, fmt.Errorf("sbml: parameter %s constant %q", p.ID, v)
		}
	}
	return p, nil
}

func parseGlobalParameter(m *Model, n *xmltree.Node) error {
	p, err := parseParameterNode(n)
	if err != nil {
		return err
	}
	m.Parameters = append(m.Parameters, p)
	return nil
}

func parseInitialAssignment(m *Model, n *xmltree.Node) error {
	ia := &InitialAssignment{Symbol: n.Attr("symbol")}
	if ia.Symbol == "" {
		return fmt.Errorf("sbml: initialAssignment without symbol")
	}
	e, err := parseMathChild(n, "initialAssignment "+ia.Symbol)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("sbml: initialAssignment %s without math", ia.Symbol)
	}
	ia.Math = e
	m.InitialAssignments = append(m.InitialAssignments, ia)
	return nil
}

func parseRule(m *Model, n *xmltree.Node) error {
	var kind RuleKind
	switch n.Name {
	case "algebraicRule":
		kind = AlgebraicRule
	case "assignmentRule":
		kind = AssignmentRule
	case "rateRule":
		kind = RateRule
	default:
		return fmt.Errorf("sbml: unknown rule element <%s>", n.Name)
	}
	r := &Rule{Kind: kind, Variable: n.Attr("variable")}
	if kind != AlgebraicRule && r.Variable == "" {
		return fmt.Errorf("sbml: %s without variable", kind)
	}
	e, err := parseMathChild(n, "rule")
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("sbml: rule without math")
	}
	r.Math = e
	m.Rules = append(m.Rules, r)
	return nil
}

func parseConstraint(m *Model, n *xmltree.Node) error {
	c := &Constraint{}
	e, err := parseMathChild(n, "constraint")
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("sbml: constraint without math")
	}
	c.Math = e
	if msg := n.Child("message"); msg != nil {
		c.Message = msg.InnerText()
	}
	m.Constraints = append(m.Constraints, c)
	return nil
}

func parseSpeciesRefs(list *xmltree.Node) ([]*SpeciesReference, error) {
	if list == nil {
		return nil, nil
	}
	var out []*SpeciesReference
	for _, sr := range list.ChildElements("speciesReference") {
		ref := &SpeciesReference{Species: sr.Attr("species"), Stoichiometry: 1}
		if ref.Species == "" {
			return nil, fmt.Errorf("sbml: speciesReference without species")
		}
		if v := sr.Attr("stoichiometry"); v != "" {
			st, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("sbml: stoichiometry %q for %s", v, ref.Species)
			}
			ref.Stoichiometry = st
		}
		out = append(out, ref)
	}
	return out, nil
}

func parseReaction(m *Model, n *xmltree.Node) error {
	r := &Reaction{ID: n.Attr("id"), Name: n.Attr("name"), Reversible: true}
	if r.ID == "" {
		return fmt.Errorf("sbml: reaction without id")
	}
	if notes := n.Child("notes"); notes != nil {
		r.Notes = notes.InnerText()
	}
	var err error
	if v := n.Attr("reversible"); v != "" {
		if r.Reversible, err = strconv.ParseBool(v); err != nil {
			return fmt.Errorf("sbml: reaction %s reversible %q", r.ID, v)
		}
	}
	if v := n.Attr("fast"); v != "" {
		if r.Fast, err = strconv.ParseBool(v); err != nil {
			return fmt.Errorf("sbml: reaction %s fast %q", r.ID, v)
		}
	}
	if r.Reactants, err = parseSpeciesRefs(n.Child("listOfReactants")); err != nil {
		return fmt.Errorf("%w (reaction %s)", err, r.ID)
	}
	if r.Products, err = parseSpeciesRefs(n.Child("listOfProducts")); err != nil {
		return fmt.Errorf("%w (reaction %s)", err, r.ID)
	}
	if list := n.Child("listOfModifiers"); list != nil {
		for _, mr := range list.ChildElements("modifierSpeciesReference") {
			ref := &ModifierSpeciesReference{Species: mr.Attr("species")}
			if ref.Species == "" {
				return fmt.Errorf("sbml: modifier without species in reaction %s", r.ID)
			}
			r.Modifiers = append(r.Modifiers, ref)
		}
	}
	if klNode := n.Child("kineticLaw"); klNode != nil {
		kl := &KineticLaw{}
		e, err := parseMathChild(klNode, "kineticLaw of "+r.ID)
		if err != nil {
			return err
		}
		kl.Math = e
		for _, listName := range []string{"listOfParameters", "listOfLocalParameters"} {
			if list := klNode.Child(listName); list != nil {
				for _, pn := range list.ChildElements("") {
					p, err := parseParameterNode(pn)
					if err != nil {
						return fmt.Errorf("%w (kineticLaw of %s)", err, r.ID)
					}
					kl.Parameters = append(kl.Parameters, p)
				}
			}
		}
		r.KineticLaw = kl
	}
	m.Reactions = append(m.Reactions, r)
	return nil
}

func parseEvent(m *Model, n *xmltree.Node) error {
	e := &Event{ID: n.Attr("id"), Name: n.Attr("name")}
	if trig := n.Child("trigger"); trig != nil {
		expr, err := parseMathChild(trig, "event trigger")
		if err != nil {
			return err
		}
		e.Trigger = expr
	}
	if e.Trigger == nil {
		return fmt.Errorf("sbml: event %q without trigger", e.ID)
	}
	if delay := n.Child("delay"); delay != nil {
		expr, err := parseMathChild(delay, "event delay")
		if err != nil {
			return err
		}
		e.Delay = expr
	}
	if list := n.Child("listOfEventAssignments"); list != nil {
		for _, ea := range list.ChildElements("eventAssignment") {
			a := &EventAssignment{Variable: ea.Attr("variable")}
			if a.Variable == "" {
				return fmt.Errorf("sbml: eventAssignment without variable in event %q", e.ID)
			}
			expr, err := parseMathChild(ea, "eventAssignment "+a.Variable)
			if err != nil {
				return err
			}
			if expr == nil {
				return fmt.Errorf("sbml: eventAssignment %s without math", a.Variable)
			}
			a.Math = expr
			e.Assignments = append(e.Assignments, a)
		}
	}
	m.Events = append(m.Events, e)
	return nil
}
