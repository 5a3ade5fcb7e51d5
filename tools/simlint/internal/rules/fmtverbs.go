package rules

import "strconv"

// verbRef is one formatting verb and the argument index it consumes
// (relative to the first variadic argument); errwrap uses it to hunt
// sentinels passed to fmt.Errorf without %w.
type verbRef struct {
	verb  rune
	flags string // the verb's flag characters, e.g. "+" for %+v
	arg   int
}

// verbRefs scans a format string and pairs each verb with its argument
// index, handling %%, flags, star width/precision (each consumes an
// argument) and explicit [n] argument indexes.
func verbRefs(format string) []verbRef {
	var refs []verbRef
	next := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		flags := ""
		for i < len(format) {
			c := format[i]
			switch {
			case c == '+' || c == '-' || c == '#' || c == ' ' || c == '0':
				flags += string(c)
				i++
				continue
			case c == '*':
				next++ // star width/precision consumes an argument
				i++
				continue
			case c >= '1' && c <= '9' || c == '.':
				i++
				continue
			case c == '[':
				j := i + 1
				numEnd := j
				for numEnd < len(format) && format[numEnd] >= '0' && format[numEnd] <= '9' {
					numEnd++
				}
				if numEnd < len(format) && format[numEnd] == ']' {
					if n, err := strconv.Atoi(format[j:numEnd]); err == nil && n >= 1 {
						next = n - 1
					}
					i = numEnd + 1
					continue
				}
			}
			break
		}
		if i >= len(format) {
			break
		}
		refs = append(refs, verbRef{verb: rune(format[i]), flags: flags, arg: next})
		next++
	}
	return refs
}
