// Package ew2 compares against an imported sentinel, exercising errwrap's
// module-wide sentinel set.
package ew2

import "fixture/ew"

// CrossCompared tests an imported sentinel with !=: flagged.
func CrossCompared(err error) bool { return err != ew.ErrBoom }
