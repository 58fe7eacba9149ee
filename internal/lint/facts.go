package lint

// The cross-pass fact store. An analyzer's per-package Run pass exports
// facts about objects (functions, struct fields, variables); its
// RunProgram pass — possibly while checking a different package —
// imports them. Facts are keyed by the object's declaration position
// and the fact's type, so a fact exported about harness.TrialSpec's
// Seed field while checking internal/harness is found again when
// internal/serve's pass looks the field up through its import.

import (
	"go/token"
	"go/types"
	"reflect"
)

// Fact is a datum an analyzer attaches to an object. Implementations
// are pointers to structs and carry the marker method:
//
//	type mutexGuard struct{ Mutex string }
//	func (*mutexGuard) AFact() {}
type Fact interface{ AFact() }

// FactStore holds one analyzer's object facts for a whole program run.
// It is never shared between analyzers.
type FactStore struct {
	fset *token.FileSet
	m    map[factKey]Fact
}

type factKey struct {
	obj string // declaration position of the object, file:line:col
	typ string // fact type name
}

// NewFactStore returns an empty store resolving positions against fset.
func NewFactStore(fset *token.FileSet) *FactStore {
	return &FactStore{fset: fset, m: make(map[factKey]Fact)}
}

// ObjectKey returns the store's identity for obj: its declaration
// position. Exposed so analyzers can key auxiliary maps compatibly.
func (s *FactStore) ObjectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if orig := f.Origin(); orig != nil {
			obj = orig
		}
	}
	if v, ok := obj.(*types.Var); ok {
		if orig := v.Origin(); orig != nil {
			obj = orig
		}
	}
	return s.fset.Position(obj.Pos()).String()
}

// ExportObjectFact records fact about obj, replacing any previous fact
// of the same type.
func (s *FactStore) ExportObjectFact(obj types.Object, fact Fact) {
	s.m[factKey{obj: s.ObjectKey(obj), typ: factTypeName(fact)}] = fact
}

// ImportObjectFact copies the stored fact of fact's type about obj into
// fact, reporting whether one was found.
func (s *FactStore) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := s.m[factKey{obj: s.ObjectKey(obj), typ: factTypeName(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

func factTypeName(fact Fact) string {
	t := reflect.TypeOf(fact)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.PkgPath() + "." + t.Name()
}
