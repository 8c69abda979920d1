// Command fixture is the caller side of the export-guard fixture: it calls
// lib.Called and lib.First and prints a lib.Point only through %v.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	p := lib.Called()
	fmt.Printf("%v %d\n", p, lib.First([]int{3, 4}))
	fmt.Println(errors.Is(lib.Wrap(errors.ErrUnsupported), errors.ErrUnsupported))
}
