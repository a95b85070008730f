package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The verdict response writer: the bodies of POST /v1/annotate,
// GET /v1/community/{comm} and GET /v1/as/{asn} are appended straight
// into a caller-supplied []byte, byte for byte what
//
//	enc := json.NewEncoder(w); enc.SetIndent("", "  "); enc.Encode(v)
//
// writes for the same value: field order and omitempty of the tagged
// structs, two-space indent, trailing newline, encoding/json's string
// escaping (HTML-safe, U+2028/U+2029) and float format. The tagged
// structs stay the wire spec and encoding/json stays the test oracle
// (TestVerdictWriterMatchesEncodingJSON); what the writer saves is the
// reflection walk and the second pass that re-scans the compact
// encoding to indent it. Nothing is written to the connection before a
// body is complete, so a value JSON cannot carry is an error the
// handler can still answer with a 500.

// errNonFinite reports a float JSON cannot carry, worded like
// encoding/json's UnsupportedValueError.
func errNonFinite(f float64) error {
	return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}

const indentedLine = "\n                " // a line break and 8 levels; the deepest member sits at 6

// newline starts a line at nesting depth d.
func newline(b []byte, d int) []byte {
	return append(b, indentedLine[:1+2*d]...)
}

// member starts the first member of an object at nesting depth d: a
// new line and the key, which the caller spells with its quotes and
// colon (`"kind": `) so that it goes out in one append.
func member(b []byte, d int, key string) []byte {
	return append(newline(b, d), key...)
}

// next starts any later member.
func next(b []byte, d int, key string) []byte {
	return member(append(b, ','), d, key)
}

// appendAnnotateResponse renders the POST /v1/annotate body.
func appendAnnotateResponse(b []byte, r *annotateResponse) ([]byte, error) {
	var err error
	b = append(b, '{')
	b = member(b, 1, `"generation": `)
	b = strconv.AppendUint(b, r.Generation, 10)
	if len(r.Annotations) > 0 {
		b = next(b, 1, `"annotations": `)
		if b, err = appendAnnotations(b, r.Annotations, 1); err != nil {
			return b, err
		}
	}
	if len(r.Tuples) > 0 {
		b = next(b, 1, `"tuples": `)
		b = append(b, '[')
		for i := range r.Tuples {
			t := &r.Tuples[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(newline(b, 2), '{')
			if t.Path != "" {
				b = member(b, 3, `"path": `)
				b = appendString(b, t.Path)
				b = next(b, 3, `"annotations": `)
			} else {
				b = member(b, 3, `"annotations": `)
			}
			if b, err = appendAnnotations(b, t.Annotations, 3); err != nil {
				return b, err
			}
			b = append(newline(b, 2), '}')
		}
		b = append(newline(b, 1), ']')
	}
	return append(b, "\n}\n"...), nil
}

// appendAnnotations renders a []Annotation that is the value of a
// member at depth d.
func appendAnnotations(b []byte, as []Annotation, d int) ([]byte, error) {
	if as == nil {
		return append(b, "null"...), nil
	}
	if len(as) == 0 {
		return append(b, "[]"...), nil
	}
	var err error
	b = append(b, '[')
	for i := range as {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(newline(b, d+1), '{')
		if b, err = appendAnnotationMembers(b, &as[i], d+2); err != nil {
			return b, err
		}
		b = append(newline(b, d+1), '}')
	}
	return append(newline(b, d), ']'), nil
}

// appendAnnotationMembers renders the members of one Annotation at
// depth d, without the braces: communityResponse embeds them.
func appendAnnotationMembers(b []byte, a *Annotation, d int) ([]byte, error) {
	b = member(b, d, `"community": `)
	b = append(b, '"') // digits and colons: nothing to escape
	b = a.Community.AppendTo(b)
	b = append(b, '"')
	b = next(b, d, `"kind": `)
	b = appendString(b, a.Kind)
	b = next(b, d, `"observed": `)
	b = strconv.AppendBool(b, a.Observed)
	b = next(b, d, `"category": `)
	b = appendString(b, a.Category)
	b = next(b, d, `"on_path": `)
	b = strconv.AppendInt(b, int64(a.OnPath), 10)
	b = next(b, d, `"off_path": `)
	b = strconv.AppendInt(b, int64(a.OffPath), 10)
	if a.Reason != "" {
		b = next(b, d, `"exclude_reason": `)
		b = appendString(b, a.Reason)
	}
	if a.Cluster != nil {
		var err error
		b = next(b, d, `"cluster": `)
		if b, err = appendCluster(b, a.Cluster, d); err != nil {
			return b, err
		}
	}
	if a.OnThisPath != nil {
		b = next(b, d, `"on_this_path": `)
		b = strconv.AppendBool(b, *a.OnThisPath)
	}
	return b, nil
}

// appendCluster renders one ClusterJSON object whose braces sit at
// depth d.
func appendCluster(b []byte, c *ClusterJSON, d int) ([]byte, error) {
	if math.IsNaN(c.Ratio) || math.IsInf(c.Ratio, 0) {
		return b, errNonFinite(c.Ratio)
	}
	b = append(b, '{')
	b = member(b, d+1, `"asn": `)
	b = strconv.AppendUint(b, uint64(c.ASN), 10)
	b = next(b, d+1, `"lo": `)
	b = strconv.AppendUint(b, uint64(c.Lo), 10)
	b = next(b, d+1, `"hi": `)
	b = strconv.AppendUint(b, uint64(c.Hi), 10)
	b = next(b, d+1, `"category": `)
	b = appendString(b, c.Category)
	b = next(b, d+1, `"size": `)
	b = strconv.AppendInt(b, int64(c.Size), 10)
	b = next(b, d+1, `"on_path": `)
	b = strconv.AppendInt(b, int64(c.OnPath), 10)
	b = next(b, d+1, `"off_path": `)
	b = strconv.AppendInt(b, int64(c.OffPath), 10)
	b = next(b, d+1, `"pure_on_path": `)
	b = strconv.AppendBool(b, c.PureOnPath)
	b = next(b, d+1, `"pure_off_path": `)
	b = strconv.AppendBool(b, c.PureOffPath)
	b = next(b, d+1, `"ratio": `)
	b = appendFloat(b, c.Ratio)
	if c.Fn != nil {
		b = next(b, d+1, `"fn": `)
		b = strconv.AppendUint(b, uint64(*c.Fn), 10)
	}
	return append(newline(b, d), '}'), nil
}

// appendCommunityResponse renders the GET /v1/community/{comm} body.
func appendCommunityResponse(b []byte, r *communityResponse) ([]byte, error) {
	b = append(b, '{')
	b, err := appendAnnotationMembers(b, &r.Annotation, 1)
	if err != nil {
		return b, err
	}
	b = next(b, 1, `"generation": `)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, "\n}\n"...), nil
}

// appendASResponse renders the GET /v1/as/{asn} body.
func appendASResponse(b []byte, r *asResponse) ([]byte, error) {
	b = append(b, '{')
	b = member(b, 1, `"asn": `)
	b = strconv.AppendUint(b, uint64(r.ASN), 10)
	b = next(b, 1, `"clusters": `)
	switch {
	case r.Clusters == nil:
		b = append(b, "null"...)
	case len(r.Clusters) == 0:
		b = append(b, "[]"...)
	default:
		var err error
		b = append(b, '[')
		for i := range r.Clusters {
			if i > 0 {
				b = append(b, ',')
			}
			b = newline(b, 2)
			if b, err = appendCluster(b, &r.Clusters[i], 2); err != nil {
				return b, err
			}
		}
		b = append(newline(b, 1), ']')
	}
	b = next(b, 1, `"generation": `)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, "\n}\n"...), nil
}

// appendFloat renders a finite float64 as encoding/json does: %f form,
// except %e below 1e-6 and from 1e21, with a two-digit exponent's
// leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString renders s as a JSON string the way encoding/json does
// with HTML escaping on: `"`, `\` and control bytes escaped (short
// forms for \b \f \n \r \t), `<`, `>`, `&`, U+2028 and U+2029 as
// \u00XX / \u202X, and each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
