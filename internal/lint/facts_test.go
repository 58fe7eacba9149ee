package lint

import "testing"

type testFact struct {
	Label string
	N     int
}

func (*testFact) AFact() {}

type otherFact struct {
	Flag bool
}

func (*otherFact) AFact() {}

// A fact exported on package a's Leaf is found again through package
// b's import of a. The loader type-checks a once, so both views are one
// object. A second export of the same fact type replaces the first.
func TestFactStoreRoundTripAcrossUniverses(t *testing.T) {
	_, pkgs := loadTestProgram(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": `package a

// Leaf is exported so package b sees it.
func Leaf() {}
`,
		"b/b.go": `package b

import "example.com/m/a"

func use() { a.Leaf() }
`,
	}, "a", "b")
	store := NewFactStore(pkgs[0].Fset)
	leafA := pkgs[0].Pkg.Scope().Lookup("Leaf")
	if leafA == nil {
		t.Fatal("no Leaf in package a")
	}
	store.ExportObjectFact(leafA, &testFact{Label: "x", N: 7})

	leafB := pkgs[1].Pkg.Imports()[0].Scope().Lookup("Leaf")
	if leafB != leafA {
		t.Fatalf("b's import of a.Leaf is %v, want the object of a's own check", leafB)
	}
	var got testFact
	if !store.ImportObjectFact(leafB, &got) || got.Label != "x" || got.N != 7 {
		t.Fatalf("import through b = %+v", got)
	}

	// A different fact type about the same object is absent.
	var other otherFact
	if store.ImportObjectFact(leafA, &other) {
		t.Fatal("otherFact should not be present")
	}

	// Re-export replaces.
	store.ExportObjectFact(leafA, &testFact{Label: "y", N: 2})
	if !store.ImportObjectFact(leafA, &got) || got.Label != "y" {
		t.Fatalf("re-export did not replace: %+v", got)
	}
}
