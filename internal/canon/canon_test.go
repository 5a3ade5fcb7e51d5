package canon

import (
	"strconv"
	"testing"
)

// TestObjectRefusesWideTables holds Object to the width of its seen mask: in
// Go 1<<64 is 0, so a table of 65 names would let its last key repeat
// unnoticed. Object panics on such a table, and reads one of 64 names with
// its last key repeated as the duplicate it is.
func TestObjectRefusesWideTables(t *testing.T) {
	names := make([]string, MaxNames+1)
	for i := range names {
		names[i] = "k" + strconv.Itoa(i)
	}
	read := func(names []string, doc string) bool {
		c := New([]byte(doc))
		return c.Object(names, func(string) bool { return c.Null() }) && c.End()
	}
	last := `"k63":null`
	if !read(names[:MaxNames], `{`+last+`}`) || read(names[:MaxNames], `{`+last+`,`+last+`}`) {
		t.Fatalf("a table of %d names: want its last key read once and refused twice", MaxNames)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Object read a table of %d names", len(names))
		}
	}()
	read(names, `{"k64":null}`)
}
