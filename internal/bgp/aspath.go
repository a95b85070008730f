package bgp

import (
	"fmt"
	"strconv"
	"strings"
)

// Segment types for AS_PATH path segments (RFC 4271 §4.3).
const (
	SegmentTypeASSet      uint8 = 1 // unordered set of ASes a route has traversed
	SegmentTypeASSequence uint8 = 2 // ordered sequence of ASes a route has traversed

	// RFC 5065 §3: member ASes inside a confederation; the decoder skips
	// both.
	segmentTypeConfedSequence uint8 = 3
	segmentTypeConfedSet      uint8 = 4
)

// PathSegment is one AS_PATH segment: an ordered AS_SEQUENCE or an
// unordered AS_SET (the latter produced by route aggregation).
type PathSegment struct {
	Type uint8    // SegmentTypeASSet or SegmentTypeASSequence
	ASNs []uint32 // 4-octet AS numbers (RFC 6793 semantics throughout)
}

// ASPath is a route's AS_PATH attribute: the sequence of ASes the
// announcement traversed, nearest AS first, origin AS last.
//
// All ASNs are handled as 4-octet values (RFC 6793); the wire codecs write
// AS_PATH in the 4-octet encoding used by BGP4MP_MESSAGE_AS4 and modern
// TABLE_DUMP_V2 archives.
type ASPath struct {
	Segments []PathSegment
}

// NewASPath builds a single-sequence path from the given ASNs (nearest
// first, origin last).
func NewASPath(asns ...uint32) ASPath {
	if len(asns) == 0 {
		return ASPath{}
	}
	seq := make([]uint32, len(asns))
	copy(seq, asns)
	return ASPath{Segments: []PathSegment{{Type: SegmentTypeASSequence, ASNs: seq}}}
}

// Clone returns a deep copy of the path.
func (p ASPath) Clone() ASPath {
	out := ASPath{Segments: make([]PathSegment, len(p.Segments))}
	for i, seg := range p.Segments {
		asns := make([]uint32, len(seg.ASNs))
		copy(asns, seg.ASNs)
		out.Segments[i] = PathSegment{Type: seg.Type, ASNs: asns}
	}
	return out
}

// Empty reports whether the path contains no ASNs.
func (p ASPath) Empty() bool {
	for _, seg := range p.Segments {
		if len(seg.ASNs) > 0 {
			return false
		}
	}
	return true
}

// Flatten returns every ASN in the path in order, with AS_SET members in
// their stored order. Prepended duplicates are preserved.
func (p ASPath) Flatten() []uint32 {
	n := 0
	for _, seg := range p.Segments {
		n += len(seg.ASNs)
	}
	return p.AppendFlatten(make([]uint32, 0, n))
}

// AppendFlatten appends every ASN in the path to dst and returns the
// extended slice; it is Flatten for callers that reuse a scratch buffer.
func (p ASPath) AppendFlatten(dst []uint32) []uint32 {
	for _, seg := range p.Segments {
		dst = append(dst, seg.ASNs...)
	}
	return dst
}

// Contains reports whether asn appears anywhere in the path.
func (p ASPath) Contains(asn uint32) bool {
	for _, seg := range p.Segments {
		for _, a := range seg.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// Origin returns the origin AS (the last ASN of the last segment) and true,
// or 0 and false for an empty path. If the last segment is an AS_SET the
// origin is ambiguous; the first set member is returned, matching common
// measurement practice.
func (p ASPath) Origin() (uint32, bool) {
	for i := len(p.Segments) - 1; i >= 0; i-- {
		seg := p.Segments[i]
		if len(seg.ASNs) == 0 {
			continue
		}
		if seg.Type == SegmentTypeASSet {
			return seg.ASNs[0], true
		}
		return seg.ASNs[len(seg.ASNs)-1], true
	}
	return 0, false
}

// Prepend inserts asn at the front of the path count times, extending the
// leading AS_SEQUENCE (or creating one). This mirrors what a router does
// when applying prepend policy or propagating a route.
func (p *ASPath) Prepend(asn uint32, count int) {
	if count <= 0 {
		return
	}
	pre := make([]uint32, count)
	for i := range pre {
		pre[i] = asn
	}
	if len(p.Segments) > 0 && p.Segments[0].Type == SegmentTypeASSequence {
		p.Segments[0].ASNs = append(pre, p.Segments[0].ASNs...)
		return
	}
	p.Segments = append([]PathSegment{{Type: SegmentTypeASSequence, ASNs: pre}}, p.Segments...)
}

// Len returns the AS_PATH length used in best-path selection: the number
// of ASNs in sequences, with each AS_SET counting as one hop (RFC 4271
// §9.1.2.2).
func (p ASPath) Len() int {
	n := 0
	for _, seg := range p.Segments {
		if seg.Type == SegmentTypeASSet {
			if len(seg.ASNs) > 0 {
				n++
			}
			continue
		}
		n += len(seg.ASNs)
	}
	return n
}

// Equal reports whether two paths have identical segment structure.
func (p ASPath) Equal(q ASPath) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		a, b := p.Segments[i], q.Segments[i]
		if a.Type != b.Type || len(a.ASNs) != len(b.ASNs) {
			return false
		}
		for j := range a.ASNs {
			if a.ASNs[j] != b.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// Key returns a compact, comparable string key for the path, suitable for
// de-duplicating (AS path, communities) tuples in maps. Sequences render
// as space-separated ASNs; sets as {a,b,...}.
func (p ASPath) Key() string {
	var b strings.Builder
	for i, seg := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if seg.Type == SegmentTypeASSet {
			b.WriteByte('{')
			for j, asn := range seg.ASNs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(uint64(asn), 10))
			}
			b.WriteByte('}')
			continue
		}
		for j, asn := range seg.ASNs {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(asn), 10))
		}
	}
	return b.String()
}

// String renders the path in looking-glass style, identical to Key.
func (p ASPath) String() string { return p.Key() }

// ParseASPath parses the Key/String representation back into a path.
func ParseASPath(s string) (ASPath, error) {
	var p ASPath
	fields := strings.Fields(s)
	for _, f := range fields {
		if strings.HasPrefix(f, "{") {
			if !strings.HasSuffix(f, "}") {
				return ASPath{}, fmt.Errorf("bgp: as path %q: unterminated AS_SET %q", s, f)
			}
			inner := strings.Trim(f, "{}")
			var set []uint32
			if inner != "" {
				for _, part := range strings.Split(inner, ",") {
					v, err := strconv.ParseUint(part, 10, 32)
					if err != nil {
						return ASPath{}, fmt.Errorf("bgp: as path %q: bad AS_SET member %q: %v", s, part, err)
					}
					set = append(set, uint32(v))
				}
			}
			p.Segments = append(p.Segments, PathSegment{Type: SegmentTypeASSet, ASNs: set})
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return ASPath{}, fmt.Errorf("bgp: as path %q: bad ASN %q: %v", s, f, err)
		}
		if n := len(p.Segments); n > 0 && p.Segments[n-1].Type == SegmentTypeASSequence {
			p.Segments[n-1].ASNs = append(p.Segments[n-1].ASNs, uint32(v))
		} else {
			p.Segments = append(p.Segments, PathSegment{Type: SegmentTypeASSequence, ASNs: []uint32{uint32(v)}})
		}
	}
	return p, nil
}
