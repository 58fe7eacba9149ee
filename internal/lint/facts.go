package lint

// The cross-pass fact store. An analyzer's per-package Run pass exports
// facts about objects (functions, struct fields, variables); its
// RunProgram pass — possibly while checking a different package —
// imports them. Facts are keyed by the object itself and the fact's
// type: the loader checks each package once, so a fact exported about
// harness.TrialSpec's Seed field while checking internal/harness is
// found again when internal/serve's pass looks the field up through its
// import, which is the same object.

import (
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
	m map[factKey]Fact
}

type factKey struct {
	obj types.Object // Origin-normalized
	typ reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// factKeyOf keys fact about obj. A method or field of an instantiated
// generic type is keyed by its declaration, the object Origin returns.
func factKeyOf(obj types.Object, fact Fact) factKey {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return factKey{obj: obj, typ: reflect.TypeOf(fact)}
}

// ExportObjectFact records fact about obj, replacing any previous fact
// of the same type.
func (s *FactStore) ExportObjectFact(obj types.Object, fact Fact) {
	s.m[factKeyOf(obj, fact)] = fact
}

// ImportObjectFact copies the stored fact of fact's type about obj into
// fact, reporting whether one was found.
func (s *FactStore) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := s.m[factKeyOf(obj, fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}
