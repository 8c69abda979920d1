// Command tool is a nested module of the caller-guard fixture: its call of
// lib.Shared counts, and its own uncalled function is not checked.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Shared()) }

// unused has no caller, but a nested module is checked only as a caller.
func unused() int { return 0 }
