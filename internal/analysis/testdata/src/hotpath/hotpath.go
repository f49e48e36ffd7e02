// Fixture for the hotpath analyzer: fmt, AsString, and map allocation are
// banned inside //gecco:hotpath functions and fine everywhere else.
package hotpath

import "fmt"

type Value struct{}

func (Value) AsString() string { return "" }

// hot is the flagged variant.
//
//gecco:hotpath
func hot(vs []Value) string {
	out := ""
	for _, v := range vs {
		out += v.AsString() // want `AsString in //gecco:hotpath function hot materialises a string per event`
	}
	seen := make(map[string]int) // want `map allocation in //gecco:hotpath function hot`
	_ = seen
	fmt.Println(out) // want `fmt\.Println in //gecco:hotpath function hot`
	return out
}

// hotLit allocates via a literal instead of make.
//
//gecco:hotpath
func hotLit() map[string]int {
	return map[string]int{} // want `map literal in //gecco:hotpath function hotLit`
}

// cold is unmarked: the same operations are fine off the hot path.
func cold(vs []Value) string {
	out := ""
	for _, v := range vs {
		out += v.AsString()
	}
	seen := make(map[string]int)
	_ = seen
	fmt.Println(out)
	return out
}

// hotClean is marked but uses only allowed operations.
//
//gecco:hotpath
func hotClean(vs []Value) int {
	n := 0
	for range vs {
		n++
	}
	return n
}

// codeAt decodes a little-endian code from a byte view with shifts: exactly
// what a per-event hot-path accessor should look like, and it must stay
// unflagged.
//
//gecco:hotpath
func codeAt(b []byte, pos int) uint32 {
	p := b[pos*4:]
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// codeAtSloppy is the decode accessor gone wrong: formatting and a map
// cache per call defeat the point of a per-event accessor.
//
//gecco:hotpath
func codeAtSloppy(b []byte, pos int) string {
	cache := make(map[int]string) // want `map allocation in //gecco:hotpath function codeAtSloppy`
	_ = cache
	return fmt.Sprintf("%d", b[pos]) // want `fmt\.Sprintf in //gecco:hotpath function codeAtSloppy`
}

// classCountsMap mirrors the retired instances.ClassCounts: a counts map
// allocated per instance is exactly what the analyzer must flag on the
// constraint-evaluation path.
//
//gecco:hotpath
func classCountsMap(classes []int) map[int]int {
	counts := make(map[int]int) // want `map allocation in //gecco:hotpath function classCountsMap`
	for _, c := range classes {
		counts[c]++
	}
	return counts
}

// classCountsInto is the replacement idiom (instances.ClassCountsInto):
// caller-provided slice scratch plus a touched list, allocation-free per
// call, and must stay unflagged.
//
//gecco:hotpath
func classCountsInto(classes []int, counts []int, touched []int) []int {
	for _, c := range classes {
		if counts[c] == 0 {
			touched = append(touched, c)
		}
		counts[c]++
	}
	return touched
}
