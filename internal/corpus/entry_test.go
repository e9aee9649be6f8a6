package corpus

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/sim"
)

// Tests for the entry shape: every entry holds only its Doc until a
// structural use parses the model from it.

// keyLog is a KeyPersister that keeps each logged add's bytes behind a
// Doc counting its reads, standing in for the durable store's locators.
type keyLog struct {
	reads atomic.Int32
}

type keyLogDoc struct {
	log *keyLog
	b   []byte
}

func (d *keyLogDoc) Bytes() ([]byte, error) {
	d.log.reads.Add(1)
	return d.b, nil
}

func (l *keyLog) PersistAdd(string, []byte) error { return errors.New("keyLog logs keyed adds only") }
func (l *keyLog) PersistRemove(string) error      { return nil }
func (l *keyLog) PersistAddKeys(_ string, b []byte, _ []core.ComponentKey) (Doc, error) {
	return &keyLogDoc{log: l, b: slices.Clone(b)}, nil
}

func canonical(m *sbml.Model) string { return sbml.WrapModel(m).ToXML().Canonical() }

func TestPersistedAddKeepsOnlyItsDoc(t *testing.T) {
	m := testModels(1)[0]
	log := &keyLog{}
	c := New(testOptions(2))
	c.SetPersister(log)
	if _, err := c.Add(m); err != nil {
		t.Fatal(err)
	}
	e, _ := c.lookup(m.ID)
	if e.model != nil || e.loadDoc() == nil {
		t.Fatalf("persisted add holds model=%v doc=%v, want its Doc only", e.model != nil, e.loadDoc() != nil)
	}
	if n := log.reads.Load(); n != 0 {
		t.Fatalf("Add read its Doc %d times, want 0", n)
	}
	got, ok := c.Get(m.ID)
	if !ok {
		t.Fatal("Get missed a persisted add")
	}
	if n := log.reads.Load(); n != 1 {
		t.Fatalf("first Get read the Doc %d times, want 1", n)
	}
	if canonical(got) != canonical(m) {
		t.Fatal("Get of a persisted add differs from the input by CanonicalXML")
	}
	if _, ok := c.Get(m.ID); !ok || log.reads.Load() != 1 {
		t.Fatalf("second Get read the Doc again (%d reads)", log.reads.Load())
	}
}

// TestInMemoryAddKeepsOnlyADeflatedDoc pins the entry shape of a corpus
// with no persister: Add keeps the model's canonical bytes deflated and no
// model, the entry is immune to later edits of the input, the first
// structural use parses once, and a Doc that cannot be inflated makes the
// model absent and its structural uses fail, never panic.
func TestInMemoryAddKeepsOnlyADeflatedDoc(t *testing.T) {
	m := testModels(1)[0]
	want := canonical(m)
	c := New(testOptions(2))
	if _, err := c.Add(m); err != nil {
		t.Fatal(err)
	}
	e, _ := c.lookup(m.ID)
	d, ok := e.loadDoc().(*deflated)
	if e.model != nil || !ok {
		t.Fatalf("in-memory add holds model=%v doc=%T, want a deflated Doc only", e.model != nil, e.loadDoc())
	}
	if raw := len(canonicalBytes(m)); len(d.z) >= raw || d.n != raw {
		t.Fatalf("deflated Doc holds %d bytes recording %d, canonical bytes are %d", len(d.z), d.n, raw)
	}

	m.Name = "edited after Add"
	m.Species[0].ID += "_edited"
	if canonical(m) == want {
		t.Fatal("the edit left the input unchanged")
	}
	got, ok := c.Get(m.ID)
	if !ok || canonical(got) != want {
		t.Fatal("Get of an in-memory add differs from the input as added by CanonicalXML")
	}
	parsed := e.model
	if parsed == nil || parsed == got {
		t.Fatalf("first Get left model=%v, or returned the shared model", parsed != nil)
	}
	if _, err := c.ComposeWith(m.ID, testModels(2)[1]); err != nil {
		t.Fatal(err)
	}
	if again, ok := c.Get(m.ID); !ok || canonical(again) != want || e.model != parsed {
		t.Fatal("a later Get or ComposeWith parsed the Doc again")
	}

	// Block type 3 is reserved, so the stream is corrupt from its first
	// byte; a truncated stream ends before the recorded length.
	for name, z := range map[string][]byte{
		"reserved block type": append([]byte{0x07}, d.z[1:]...),
		"truncated":           d.z[:len(d.z)/2],
	} {
		c := New(testOptions(2))
		if _, err := c.Add(testModels(1)[0]); err != nil {
			t.Fatal(err)
		}
		e, _ := c.lookup(m.ID)
		e.setDoc(&deflated{n: d.n, z: z})
		if _, ok := c.Get(m.ID); ok {
			t.Errorf("%s: Get found a model whose Doc cannot be inflated", name)
		}
		if _, err := c.ComposeWith(m.ID, testModels(2)[1]); err == nil {
			t.Errorf("%s: ComposeWith succeeded", name)
		}
		if _, err := c.SimulateODE(m.ID, sim.Options{T1: 1, Step: 0.5}); err == nil {
			t.Errorf("%s: SimulateODE succeeded", name)
		}
	}
}

// TestRelocateSkipsDocsHeldInMemory: Relocate re-points an entry whose Doc
// reads from a file, and leaves a deflated Doc, which reads from none,
// where it is.
func TestRelocateSkipsDocsHeldInMemory(t *testing.T) {
	models := testModels(2)
	c := New(testOptions(2))
	if _, err := c.Add(models[0]); err != nil {
		t.Fatal(err)
	}
	log := &keyLog{}
	c.SetPersister(log)
	if _, err := c.Add(models[1]); err != nil {
		t.Fatal(err)
	}
	blobs := c.DumpConsistent(nil)
	moved := make([]Doc, len(blobs))
	for i, b := range blobs {
		moved[i] = &keyLogDoc{log: log, b: []byte("relocated " + b.ID)}
	}
	c.Relocate(blobs, moved)
	for i, b := range blobs {
		e, _ := c.lookup(b.ID)
		_, inMemory := b.Doc.(*deflated)
		if relocated := e.loadDoc() == moved[i]; relocated == inMemory {
			t.Errorf("%s: relocated %v, but its Doc is %T", b.ID, relocated, b.Doc)
		}
	}
}

// TestReplayRemoveOfAbsentNamesSeq: a replayed log whose remove names a
// model that is not there fails, and the error names the record's seq.
func TestReplayRemoveOfAbsentNamesSeq(t *testing.T) {
	c := New(testOptions(2))
	err := c.ApplyBatch([]BatchOp{{Remove: true, Seq: 7, ID: "ghost"}})
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "seq 7") || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("replayed remove of an absent model: err = %v, want ErrNotFound naming seq 7 and the id", err)
	}
}
