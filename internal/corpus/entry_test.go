package corpus

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
)

// Tests for the entry shape: an entry holds either its model (an in-memory
// corpus) or its Doc (a corpus with a persister), never both.

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
	c := New(testOptions(2, 1))
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

func TestInMemoryAddKeepsItsModel(t *testing.T) {
	m := testModels(1)[0]
	c := New(testOptions(2, 1))
	if _, err := c.Add(m); err != nil {
		t.Fatal(err)
	}
	e, _ := c.lookup(m.ID)
	if e.model == nil || e.loadDoc() != nil {
		t.Fatalf("in-memory add holds model=%v doc=%v, want its model only", e.model != nil, e.loadDoc() != nil)
	}
	if e.model == m {
		t.Fatal("in-memory add keeps the caller's model, not a clone")
	}
	kept := e.model
	got, ok := c.Get(m.ID)
	if !ok || canonical(got) != canonical(m) {
		t.Fatal("Get of an in-memory add lost the model")
	}
	if got == kept || e.model != kept {
		t.Fatal("Get of an in-memory add returned the kept model or replaced it")
	}
}

// TestReplayRemoveOfAbsentNamesSeq: a replayed log whose remove names a
// model that is not there fails, and the error names the record's seq.
func TestReplayRemoveOfAbsentNamesSeq(t *testing.T) {
	c := New(testOptions(2, 1))
	err := c.ApplyBatch([]BatchOp{{Remove: true, Seq: 7, ID: "ghost"}})
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "seq 7") || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("replayed remove of an absent model: err = %v, want ErrNotFound naming seq 7 and the id", err)
	}
}
