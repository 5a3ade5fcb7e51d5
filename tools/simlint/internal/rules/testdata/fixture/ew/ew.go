// Package ew exercises the errwrap rule against its own sentinel.
package ew

import (
	"errors"
	"fmt"
	"strings"
)

// ErrBoom is the fixture sentinel.
var ErrBoom = errors.New("boom")

// Compared tests with ==: flagged.
func Compared(err error) bool { return err == ErrBoom }

// Wrapped passes the sentinel under %v: clean (the wrap sites are tests').
func Wrapped(err error) error { return fmt.Errorf("op: %v: %w", ErrBoom, err) }

// TextMatched compares the message text: flagged.
func TextMatched(err error) bool { return err.Error() == "boom" }

// ContainsMatched greps the message text: flagged.
func ContainsMatched(err error) bool { return strings.Contains(err.Error(), "boom") }

// IsMatched uses errors.Is: clean.
func IsMatched(err error) bool { return errors.Is(err, ErrBoom) }

// WrapClean wraps with %w: clean.
func WrapClean(err error) error { return fmt.Errorf("op: %w", ErrBoom) }

// NilCheck compares the sentinel variable itself to nil: clean.
func NilCheck() bool { return ErrBoom != nil }
