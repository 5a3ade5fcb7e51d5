// Package canon reads JSON without reflection, for the strict subset that
// encoding/json writes for a struct of plain fields:
//
//   - every key spelled exactly as its field's name, at most once per object;
//   - strings of printable ASCII with no backslash;
//   - numbers in the JSON grammar, parsed with the strconv call that
//     encoding/json makes for the field's kind (an integer field takes only
//     an integer literal);
//   - null only where it means nil (a slice or a pointer), and [] as an
//     empty non-nil slice;
//   - JSON whitespace between tokens and after the value, nothing else.
//
// A caller describes its types with field tables and readers built on a
// Cursor. On input outside the subset a reader reports false, and the caller
// hands the same bytes to encoding/json, which stays the reference: whatever
// the subset accepts, the reference accepts as the same value. The wire
// decoders of api/v1 and the store's result decoder are its two callers,
// each with a fuzzer holding it to the reference.
package canon

import "strconv"

// MaxNames is the most keys an object's names table may hold: Object tracks
// the keys it has seen in one 64-bit mask.
const MaxNames = 64

// Cursor is a position in one document of the subset. Every reader skips
// the whitespace before its token and reports false, having consumed an
// unspecified prefix, on input outside the subset.
type Cursor struct {
	b []byte
	i int
}

// New returns a cursor at the start of b.
func New(b []byte) Cursor { return Cursor{b: b} }

// space skips JSON whitespace, all of which sorts at or below ' '.
func (c *Cursor) space() {
	b, i := c.b, c.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	c.i = i
}

// next consumes the byte ch if it is the next token.
func (c *Cursor) next(ch byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// literal consumes the keyword word (null, true or false) if it is next.
func (c *Cursor) literal(word string) bool {
	c.space()
	if len(c.b)-c.i >= len(word) && string(c.b[c.i:c.i+len(word)]) == word {
		c.i += len(word)
		return true
	}
	return false
}

// Null consumes a null.
func (c *Cursor) Null() bool { return c.literal("null") }

// End reports whether nothing but whitespace is left.
func (c *Cursor) End() bool {
	c.space()
	return c.i == len(c.b)
}

// Object reads one object whose keys are among names, each spelled exactly
// and present at most once, and hands each key's value to field by its
// entry in names. A table of more than MaxNames entries panics: past the
// mask's width a repeated key would go unseen.
func (c *Cursor) Object(names []string, field func(name string) bool) bool {
	if len(names) > MaxNames {
		panic("canon: an object of more than 64 names")
	}
	if !c.next('{') {
		return false
	}
	if c.next('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := c.Raw()
		if !ok || !c.next(':') {
			return false
		}
		f := 0
		for f < len(names) && names[f] != string(key) {
			f++
		}
		if f == len(names) || seen&(1<<f) != 0 || !field(names[f]) {
			return false
		}
		seen |= 1 << f
		if !c.next(',') {
			return c.next('}')
		}
	}
}

// Array reads null as a nil slice and an array as a non-nil slice whose
// elements elem reads.
func Array[T any](c *Cursor, v *[]T, elem func(*Cursor, *T) bool) bool {
	if c.Null() {
		*v = nil
		return true
	}
	if !c.next('[') {
		return false
	}
	s := []T{}
	for !c.next(']') {
		if len(s) > 0 && !c.next(',') {
			return false
		}
		var zero T
		s = append(s, zero)
		if !elem(c, &s[len(s)-1]) {
			return false
		}
	}
	*v = s
	return true
}

// Raw reads one string's bytes: printable ASCII, no escapes.
func (c *Cursor) Raw() ([]byte, bool) {
	if !c.next('"') {
		return nil, false
	}
	b, start, i := c.b, c.i, c.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	c.i = i + 1
	return b[start:i], true
}

// plain marks the bytes a canonical string holds: printable ASCII but the
// quote and the backslash.
var plain = func() (t [256]bool) {
	for ch := ' '; ch <= '~'; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// Str reads a string.
func (c *Cursor) Str(v *string) bool {
	raw, ok := c.Raw()
	if ok {
		*v = string(raw)
	}
	return ok
}

// Bool reads true or false.
func (c *Cursor) Bool(v *bool) bool {
	switch {
	case c.literal("true"):
		*v = true
	case c.literal("false"):
		*v = false
	default:
		return false
	}
	return true
}

// number reads one number in the JSON grammar and reports whether it is an
// integer literal: no fraction and no exponent.
func (c *Cursor) number() (lit []byte, integer, ok bool) {
	c.space()
	start := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	switch {
	case c.i < len(c.b) && c.b[c.i] == '0':
		c.i++
	case c.digits() == 0:
		return nil, false, false
	}
	integer = true
	if c.i < len(c.b) && c.b[c.i] == '.' {
		c.i++
		if c.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if c.i < len(c.b) && (c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		c.i++
		if c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if c.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return c.b[start:c.i], integer, true
}

// digits consumes a run of decimal digits and returns its length.
func (c *Cursor) digits() int {
	b, start, i := c.b, c.i, c.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	c.i = i
	return i - start
}

// Int reads an integer literal into an int.
func (c *Cursor) Int(v *int) bool {
	lit, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

// Int64 reads an integer literal into an int64 (a time.Duration, say).
func (c *Cursor) Int64(v *int64) bool {
	lit, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*v = n
	return err == nil
}

// Uint reads an integer literal into a uint64.
func (c *Cursor) Uint(v *uint64) bool {
	lit, integer, ok := c.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*v = n
	return err == nil
}

// Float reads any number into a float64.
func (c *Cursor) Float(v *float64) bool {
	lit, _, ok := c.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*v = f
	return err == nil
}
