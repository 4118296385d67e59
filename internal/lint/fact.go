// The fact layer: analyzers export typed facts on objects while
// analyzing one package, and downstream packages (in import-graph
// topological order) import them — the same shape as
// golang.org/x/tools/go/analysis.Fact, built on the standard library
// alone. Facts are what turn the per-package analyzers into
// whole-module inter-procedural checks: simdeterm learns that a helper
// two packages away transitively calls time.Now, hotalloc that it
// allocates a string per call, statshandle that it hashes a counter
// name.
//
// Facts are keyed by (analyzer, object): an analyzer only ever sees its
// own facts, so two analyzers can attach different fact types to the
// same function without interference. The driver (driver.go) guarantees
// that by the time a package is analyzed, every module-local package it
// imports has already been analyzed and its facts recorded.

package lint

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed datum attached to a types.Object by one analyzer
// and visible to later passes of the same analyzer on downstream
// packages. Implementations must be pointers to structs.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// objFactKey identifies one analyzer's fact slot on one object.
type objFactKey struct {
	analyzer string
	obj      types.Object
}

// A factStore holds every exported fact for one driver run. All
// packages of a run share a loader (and therefore a types universe), so
// object identity is stable: the *types.Func a downstream package
// resolves through Info.Uses is the same object the defining package
// exported a fact on.
type factStore struct {
	obj map[objFactKey][]Fact
}

func newFactStore() *factStore {
	return &factStore{obj: make(map[objFactKey][]Fact)}
}

// set records fact for (analyzer, obj), replacing an existing fact of
// the same concrete type (re-exporting is an update, not an append).
func (s *factStore) set(analyzer string, obj types.Object, fact Fact) {
	key := objFactKey{analyzer, obj}
	t := reflect.TypeOf(fact)
	for i, f := range s.obj[key] {
		if reflect.TypeOf(f) == t {
			s.obj[key][i] = fact
			return
		}
	}
	s.obj[key] = append(s.obj[key], fact)
}

// get copies the stored fact of ptr's concrete type into ptr and
// reports whether one was found.
func (s *factStore) get(analyzer string, obj types.Object, ptr Fact) bool {
	t := reflect.TypeOf(ptr)
	for _, f := range s.obj[objFactKey{analyzer, obj}] {
		if reflect.TypeOf(f) == t {
			reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// validateFact panics unless fact is a non-nil pointer to a struct —
// the contract reflect copying relies on. Called on export and import
// so a malformed fact type fails at the first use, in the analyzer's
// own tests.
func validateFact(fact Fact) {
	v := reflect.ValueOf(fact)
	if !v.IsValid() || v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("lint: fact %T must be a non-nil pointer to a struct", fact))
	}
}

// ExportObjectFact attaches fact to obj for this pass's analyzer.
// Downstream packages that can reference obj can import it with
// ImportObjectFact.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	validateFact(fact)
	if obj == nil {
		panic("lint: ExportObjectFact on nil object")
	}
	p.facts.set(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact copies the fact of ptr's concrete type previously
// exported on obj by this pass's analyzer into ptr, reporting whether
// one exists.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	validateFact(ptr)
	if obj == nil {
		return false
	}
	return p.facts.get(p.Analyzer.Name, obj, ptr)
}
