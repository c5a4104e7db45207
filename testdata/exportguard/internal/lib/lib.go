// Package lib is the export guard's fixture.
package lib

import "fmt"

// OnlyTested is called only from lib_test.go.
func OnlyTested() int { return 1 }

// Shipped is called from main.go.
func Shipped() int { return 2 }

// Label is converted in main.go.
type Label int

// String is called only through fmt.Stringer.
func (l Label) String() string { return "label" }

// Asserted is named only by the blank interface assertion below.
type Asserted struct{}

// String completes fmt.Stringer.
func (*Asserted) String() string { return "asserted" }

var _ fmt.Stringer = (*Asserted)(nil)
