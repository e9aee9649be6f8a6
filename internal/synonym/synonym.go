// Package synonym implements the local synonym tables SBMLCompose uses in
// place of semanticSBML's online annotation-database lookups (§3 of the
// paper: "we use synonym tables and the users who create models are informed
// that biological entities must be given names expressing biological
// meaning").
//
// A Table is a union-find structure over normalized names: adding the pair
// (ATP, adenosine triphosphate) merges their equivalence classes, after
// which Match reports them — and anything else in either class — as
// synonymous. Tables are cheap to query (two find operations), can be
// extended at runtime ("new biological entities can be added to support
// composition, as needed"), and serialize to a simple line-based format.
package synonym

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Table is a synonym table: a partition of names into equivalence classes.
// The zero value is not usable; call NewTable. A Table is safe for
// concurrent use: even read-style queries (Match, Canonical) mutate the
// underlying union-find forest through path compression, so all access is
// serialized — concurrent searches and compositions share one table.
type Table struct {
	mu     sync.Mutex
	parent map[string]string // union-find forest over normalized names
	rank   map[string]int
	canon  map[string]string // root → lexicographically smallest class member
	size   int               // number of Add'ed pairs, for diagnostics
}

// NewTable returns an empty synonym table.
func NewTable() *Table {
	return &Table{
		parent: make(map[string]string),
		rank:   make(map[string]int),
		canon:  make(map[string]string),
	}
}

// Normalize maps a raw entity name to its canonical lookup form:
// lower-cased, with surrounding space removed and interior runs of
// whitespace, hyphens and underscores collapsed to single underscores.
// "D-Glucose" and "d glucose" normalize identically.
func Normalize(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	var b strings.Builder
	lastSep := false
	for _, r := range name {
		if r == ' ' || r == '\t' || r == '-' || r == '_' {
			if !lastSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			lastSep = true
			continue
		}
		lastSep = false
		b.WriteRune(r)
	}
	return strings.TrimSuffix(b.String(), "_")
}

func (t *Table) find(x string) string {
	root := x
	for {
		p, ok := t.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	// Path compression.
	for x != root {
		next := t.parent[x]
		t.parent[x] = root
		x = next
	}
	return root
}

func (t *Table) ensure(x string) {
	if _, ok := t.parent[x]; !ok {
		t.parent[x] = x
		t.rank[x] = 0
		t.canon[x] = x
	}
}

// Add records that a and b name the same biological entity. Both names are
// normalized first.
func (t *Table) Add(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(a, b)
}

// add is Add without locking, for callers already holding mu.
func (t *Table) add(a, b string) {
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return
	}
	t.ensure(na)
	t.ensure(nb)
	ra, rb := t.find(na), t.find(nb)
	if ra == rb {
		return
	}
	t.size++
	if t.rank[ra] < t.rank[rb] {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	if t.rank[ra] == t.rank[rb] {
		t.rank[ra]++
	}
	// The united class's representative is the smaller of the two.
	if t.canon[rb] < t.canon[ra] {
		t.canon[ra] = t.canon[rb]
	}
	delete(t.canon, rb)
}

// AddClass records that all the given names are synonymous.
func (t *Table) AddClass(names ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i < len(names); i++ {
		t.add(names[0], names[i])
	}
}

// Match reports whether a and b are the same name after normalization or
// have been declared synonymous. A nil table matches only normalized-equal
// names.
func (t *Table) Match(a, b string) bool {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return na != ""
	}
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.parent[na]; !ok {
		return false
	}
	if _, ok := t.parent[nb]; !ok {
		return false
	}
	return t.find(na) == t.find(nb)
}

// Canonical returns a stable representative for name's equivalence class
// (the lexicographically smallest member), suitable as an index key. Names
// never added to the table canonicalize to their normalized form.
func (t *Table) Canonical(name string) string {
	n := Normalize(name)
	if t == nil {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.parent[n]; !ok {
		return n
	}
	// The representative is maintained per root as classes unite, so the
	// hot path — every name the composer canonicalizes — is two map hits,
	// not a table scan.
	return t.canon[t.find(n)]
}

// Classes returns every equivalence class with at least two members, each
// sorted, the classes ordered by their first element. Useful for dumping and
// testing.
func (t *Table) Classes() [][]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	byRoot := make(map[string][]string)
	for member := range t.parent {
		root := t.find(member)
		byRoot[root] = append(byRoot[root], member)
	}
	var out [][]string
	for _, members := range byRoot {
		if len(members) < 2 {
			continue
		}
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Len returns the number of names known to the table.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.parent)
}

// WriteTo serializes the table as one class per line, members separated by
// tabs. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, class := range t.Classes() {
		n, err := fmt.Fprintln(w, strings.Join(class, "\t"))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Load reads the line-based class format produced by WriteTo. Blank lines
// and lines starting with '#' are ignored. Entries accumulate into the
// receiver, so multiple files can be layered.
func (t *Table) Load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return fmt.Errorf("synonym: line %d: class needs at least two members", lineNo)
		}
		t.AddClass(fields...)
	}
	return sc.Err()
}

// Builtin returns a table seeded with common biochemical synonyms; the
// "smaller synonym tables [that] contain only the entries required for the
// composition" from §4 of the paper.
func Builtin() *Table {
	t := NewTable()
	seed := [][]string{
		{"ATP", "adenosine triphosphate", "adenosine 5'-triphosphate"},
		{"ADP", "adenosine diphosphate"},
		{"AMP", "adenosine monophosphate"},
		{"glucose", "D-glucose", "dextrose", "Glc"},
		{"glucose-6-phosphate", "G6P", "glucose 6 phosphate"},
		{"fructose-6-phosphate", "F6P"},
		{"pyruvate", "pyruvic acid", "Pyr"},
		{"lactate", "lactic acid"},
		{"NAD", "NAD+", "nicotinamide adenine dinucleotide"},
		{"NADH", "reduced NAD"},
		{"phosphate", "Pi", "inorganic phosphate"},
		{"water", "H2O"},
		{"oxygen", "O2"},
		{"carbon dioxide", "CO2"},
		{"acetyl-CoA", "acetyl coenzyme A"},
		{"citrate", "citric acid"},
		{"alpha-ketoglutarate", "2-oxoglutarate", "AKG"},
		{"oxaloacetate", "OAA"},
		{"glyceraldehyde-3-phosphate", "GAP", "G3P"},
		{"phosphoenolpyruvate", "PEP"},
		{"EGF", "epidermal growth factor"},
		{"MAPK", "mitogen activated protein kinase", "ERK"},
		{"MEK", "MAPKK", "MAP2K"},
		{"Raf", "MAPKKK", "MAP3K"},
		{"calcium", "Ca2+", "Ca"},
	}
	for _, class := range seed {
		t.AddClass(class...)
	}
	return t
}
