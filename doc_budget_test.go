package bgpintent

import (
	"os"
	"testing"
)

// docBudget is the most bytes each document may hold. The rule: a change
// that shrinks a document lowers its bound to the new size; no change
// raises one. Whatever a document gains, it pays for by cutting history
// (CHANGES.md keeps that) or prose that restates the code.
var docBudget = map[string]int64{
	"DESIGN.md": 119998,
	"README.md": 49595,
}

// TestDocBudget fails when DESIGN.md or README.md grows past its bound.
func TestDocBudget(t *testing.T) {
	for name, limit := range docBudget {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d B, over its %d B budget by %d B: cut as much elsewhere in it (history belongs in CHANGES.md); never raise the bound",
				name, fi.Size(), limit, fi.Size()-limit)
		}
	}
}
