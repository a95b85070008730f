package dict

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// RangeRegex returns an anchored regular expression matching exactly the
// decimal integers lo..hi (inclusive, no leading zeros). It is how the
// dictionary summarizes a contiguous block of β values, mirroring the
// hand-written range regexes the paper built from operator documentation
// (e.g. 1299:[257]\d\d[1239]).
func RangeRegex(lo, hi uint16) string {
	if lo > hi {
		lo, hi = hi, lo
	}
	var alts []string
	// Split by digit count so each sub-range has same-length bounds.
	for digits := len(strconv.Itoa(int(lo))); digits <= len(strconv.Itoa(int(hi))); digits++ {
		dLo := 0
		if digits > 1 {
			dLo = pow10(digits - 1)
		}
		dHi := pow10(digits) - 1
		a, b := int(lo), int(hi)
		if a < dLo {
			a = dLo
		}
		if b > dHi {
			b = dHi
		}
		if a > b {
			continue
		}
		alts = append(alts, samLenPatterns(strconv.Itoa(a), strconv.Itoa(b))...)
	}
	if len(alts) == 1 {
		return "^" + alts[0] + "$"
	}
	return "^(" + strings.Join(alts, "|") + ")$"
}

func pow10(n int) int {
	out := 1
	for i := 0; i < n; i++ {
		out *= 10
	}
	return out
}

// samLenPatterns emits regex alternatives covering lo..hi where both
// bounds have the same number of digits.
func samLenPatterns(lo, hi string) []string {
	if lo == hi {
		return []string{lo}
	}
	if len(lo) == 1 {
		return []string{digitClass(lo[0], hi[0])}
	}
	if lo[0] == hi[0] {
		sub := samLenPatterns(lo[1:], hi[1:])
		out := make([]string, len(sub))
		for i, s := range sub {
			out[i] = string(lo[0]) + s
		}
		return out
	}
	var out []string
	nines := strings.Repeat("9", len(lo)-1)
	zeros := strings.Repeat("0", len(lo)-1)
	// lo .. lo[0]999…
	if lo[1:] == zeros {
		// lo covers its whole leading-digit span; fold into the middle.
		out = append(out, spanPattern(lo[0], lo[0], len(lo)-1))
	} else {
		for _, s := range samLenPatterns(lo[1:], nines) {
			out = append(out, string(lo[0])+s)
		}
	}
	// middle full spans
	loMid, hiMid := lo[0]+1, hi[0]-1
	if lo[1:] == zeros {
		loMid = lo[0] + 1 // already folded above; keep middle separate
	}
	if hi[1:] == nines {
		hiMid = hi[0]
	}
	if loMid <= hiMid {
		out = append(out, spanPattern(loMid, hiMid, len(lo)-1))
	}
	// hi[0]000… .. hi
	if hi[1:] != nines {
		for _, s := range samLenPatterns(zeros, hi[1:]) {
			out = append(out, string(hi[0])+s)
		}
	}
	return out
}

// spanPattern matches any number with leading digit in [a,b] followed by
// n free digits.
func spanPattern(a, b byte, n int) string {
	p := digitClass(a, b)
	switch n {
	case 0:
		return p
	case 1:
		return p + `\d`
	default:
		return p + fmt.Sprintf(`\d{%d}`, n)
	}
}

// digitClass renders a single-digit character class.
func digitClass(a, b byte) string {
	if a == b {
		return string(a)
	}
	if a == '0' && b == '9' {
		return `\d`
	}
	return "[" + string(a) + "-" + string(b) + "]"
}

// Entry is one dictionary rule: a β regex for one AS with its label, like
// the paper's 199 information and 133 action regexes.
type Entry struct {
	ASN     uint32
	Pattern string
	Sub     SubCategory

	re *regexp.Regexp
}

// Category returns the entry's coarse label.
func (e *Entry) Category() Category { return e.Sub.Category() }

// Compile prepares the entry for matching. It is called automatically by
// Dictionary.Add.
func (e *Entry) Compile() error {
	re, err := regexp.Compile(e.Pattern)
	if err != nil {
		return fmt.Errorf("dict: entry %d %q: %v", e.ASN, e.Pattern, err)
	}
	e.re = re
	return nil
}

// MatchBeta reports whether the entry's regex matches the decimal
// rendering of β.
func (e *Entry) MatchBeta(beta uint16) bool {
	return e.re != nil && e.re.MatchString(strconv.Itoa(int(beta)))
}

// Dictionary is a ground-truth community dictionary: per-AS regex rules
// assembled from operator documentation (here: from generated plans).
type Dictionary struct {
	byASN map[uint32][]*Entry
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byASN: make(map[uint32][]*Entry)}
}

// Add compiles and inserts an entry.
func (d *Dictionary) Add(e *Entry) error {
	if err := e.Compile(); err != nil {
		return err
	}
	d.byASN[e.ASN] = append(d.byASN[e.ASN], e)
	return nil
}

// Lookup returns the first entry matching the community α:β, if any.
func (d *Dictionary) Lookup(asn uint32, beta uint16) (*Entry, bool) {
	for _, e := range d.byASN[asn] {
		if e.MatchBeta(beta) {
			return e, true
		}
	}
	return nil, false
}

// Category returns the coarse label the dictionary assigns to α:β, or
// CatUnknown if uncovered.
func (d *Dictionary) Category(asn uint32, beta uint16) Category {
	if e, ok := d.Lookup(asn, beta); ok {
		return e.Category()
	}
	return CatUnknown
}

// ASNs returns the number of ASes with at least one entry.
func (d *Dictionary) ASNs() int { return len(d.byASN) }

// Entries returns all entries for an AS (nil if none).
func (d *Dictionary) Entries(asn uint32) []*Entry { return d.byASN[asn] }

// Len returns the total number of entries.
func (d *Dictionary) Len() int {
	n := 0
	for _, es := range d.byASN {
		n += len(es)
	}
	return n
}

// BuildFromPlan appends one regex entry per plan block, the automated
// equivalent of summarizing operator documentation with range regexes.
func (d *Dictionary) BuildFromPlan(p *Plan) error {
	for _, b := range p.Blocks {
		e := &Entry{ASN: p.ASN, Pattern: RangeRegex(b.Lo, b.Hi), Sub: b.Sub}
		if err := d.Add(e); err != nil {
			return err
		}
	}
	return nil
}
