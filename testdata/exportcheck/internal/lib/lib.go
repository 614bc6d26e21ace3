// Package lib holds one export of each kind the export check tells apart.
package lib

// Unused has no non-test caller: the check must name it.
func Unused() int { return Used() + 1 }

// Used is called from the fixture's command.
func Used() int { return 1 }

// Namer is satisfied by T.
type Namer interface{ Name() string }

// T reaches Name only through Namer.
type T struct{}

// Name is exempt: T satisfies Namer, which declares it.
func (T) Name() string { return "t" }

// Oracle is called only by a test; the check's allow-list names it.
func Oracle() int { return 1 }
