package columnstore

import (
	"sort"
	"strings"
)

// Dictionary is the sorted, immutable string dictionary of a main-storage
// column. Value IDs are positions in sorted order, so range predicates on
// strings translate to integer range predicates on value IDs.
type Dictionary struct {
	values []string
}

// NewDictionary builds a dictionary from already-sorted, de-duplicated
// values. The caller retains no reference to the slice.
func NewDictionary(sorted []string) *Dictionary { return &Dictionary{values: sorted} }

// BuildDictionary sorts and de-duplicates vals into a dictionary.
func BuildDictionary(vals []string) *Dictionary {
	sorted := append([]string(nil), vals...)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return &Dictionary{values: out}
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.values) }

// Value returns the string at value ID id.
func (d *Dictionary) Value(id int) string { return d.values[id] }

// Lookup returns the value ID of s and whether it exists.
func (d *Dictionary) Lookup(s string) (int, bool) {
	i := sort.SearchStrings(d.values, s)
	if i < len(d.values) && d.values[i] == s {
		cDictHits.Inc()
		return i, true
	}
	cDictMisses.Inc()
	return i, false
}

// LowerBound returns the first value ID whose string is >= s.
func (d *Dictionary) LowerBound(s string) int { return sort.SearchStrings(d.values, s) }

// Bytes returns the approximate heap footprint of the dictionary.
func (d *Dictionary) Bytes() int {
	n := len(d.values) * 16 // string headers
	for _, v := range d.values {
		n += len(v)
	}
	return n
}

// Max returns the lexicographically largest value, or "" when empty.
func (d *Dictionary) Max() string {
	if len(d.values) == 0 {
		return ""
	}
	return d.values[len(d.values)-1]
}

// DeltaDict is the unsorted, append-only dictionary of a delta-store
// column. New values get the next free ID in arrival order; the merge
// phase folds them into the sorted main dictionary.
type DeltaDict struct {
	values []string
	index  map[string]int
}

// NewDeltaDict returns an empty delta dictionary.
func NewDeltaDict() *DeltaDict {
	return &DeltaDict{index: make(map[string]int)}
}

// Add interns s and returns its delta value ID. A new entry is a copy of
// s: s may be a slice of a larger string, a statement's text, which the
// dictionary must not keep alive.
func (d *DeltaDict) Add(s string) int {
	if id, ok := d.index[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := len(d.values)
	d.values = append(d.values, s)
	d.index[s] = id
	return id
}

// Lookup returns the delta value ID of s, if present.
func (d *DeltaDict) Lookup(s string) (int, bool) {
	id, ok := d.index[s]
	return id, ok
}

// Value returns the string behind delta value ID id.
func (d *DeltaDict) Value(id int) string { return d.values[id] }

// Len returns the number of distinct delta values.
func (d *DeltaDict) Len() int { return len(d.values) }

// Values returns the backing slice (arrival order); callers must not
// mutate it.
func (d *DeltaDict) Values() []string { return d.values }

// mergeDictionaries unions a sorted main dictionary with an unsorted delta
// dictionary. It returns the merged dictionary, a remap table for old main
// IDs (nil when main IDs are unchanged), a remap table for delta IDs, and
// whether the main portion had to be resorted/remapped.
//
// Fast path (§III application knowledge): when every delta value sorts
// strictly after the current main maximum — the case for generated,
// monotonically increasing keys — the delta values are appended after the
// main values and all existing main references stay valid.
func mergeDictionaries(main *Dictionary, delta *DeltaDict) (merged *Dictionary, mainRemap, deltaRemap []int, resorted bool) {
	deltaSorted := append([]string(nil), delta.Values()...)
	sort.Strings(deltaSorted)
	// De-duplicate the sorted delta values.
	uniq := deltaSorted[:0]
	for i, v := range deltaSorted {
		if i == 0 || v != deltaSorted[i-1] {
			uniq = append(uniq, v)
		}
	}

	appendOnly := main.Len() == 0 || len(uniq) == 0 || uniq[0] > main.Max()
	if appendOnly {
		vals := make([]string, 0, main.Len()+len(uniq))
		vals = append(vals, main.values...)
		vals = append(vals, uniq...)
		merged = NewDictionary(vals)
		deltaRemap = make([]int, delta.Len())
		for oldID, s := range delta.Values() {
			id, _ := merged.Lookup(s)
			deltaRemap[oldID] = id
		}
		return merged, nil, deltaRemap, false
	}

	// General path: two-way merge of the sorted sequences.
	vals := make([]string, 0, main.Len()+len(uniq))
	mainRemap = make([]int, main.Len())
	i, j := 0, 0
	for i < main.Len() || j < len(uniq) {
		switch {
		case j >= len(uniq) || (i < main.Len() && main.values[i] <= uniq[j]):
			if j < len(uniq) && main.values[i] == uniq[j] {
				j++ // same value arrives from both sides
			}
			mainRemap[i] = len(vals)
			vals = append(vals, main.values[i])
			i++
		default:
			vals = append(vals, uniq[j])
			j++
		}
	}
	merged = NewDictionary(vals)
	deltaRemap = make([]int, delta.Len())
	for oldID, s := range delta.Values() {
		id, _ := merged.Lookup(s)
		deltaRemap[oldID] = id
	}
	// The main remap may still be the identity if every delta value was a
	// duplicate of an existing main value.
	identity := true
	for id, nid := range mainRemap {
		if id != nid {
			identity = false
			break
		}
	}
	if identity {
		mainRemap = nil
	}
	return merged, mainRemap, deltaRemap, mainRemap != nil
}
