// Package dict models BGP community semantics: the action/information
// taxonomy of the paper's Figure 2, per-AS community plans (the meanings
// an operator assigns to β values), and ground-truth dictionaries in
// which contiguous runs of same-purpose values are summarized by regular
// expressions, as the paper builds from NLNOG/IRR/OneStep data.
package dict

// Category is the coarse-grained intent of a community: the binary label
// the paper's method infers.
type Category int8

const (
	// CatUnknown marks communities with no label (undocumented, or not
	// classifiable).
	CatUnknown Category = iota
	// CatAction marks communities a neighbor sets to influence routing
	// in the AS identified by the community's α half.
	CatAction
	// CatInformation marks communities the α AS itself attaches to record
	// route metadata.
	CatInformation
)

// String returns the category name used in reports and dictionary files.
func (c Category) String() string {
	switch c {
	case CatAction:
		return "action"
	case CatInformation:
		return "information"
	default:
		return "unknown"
	}
}

// SubCategory refines the coarse category along the taxonomy of Figure 2.
type SubCategory int8

const (
	SubNone SubCategory = iota

	// Action subcategories.

	// SubSuppress: do not export to an AS or in a location (incl.
	// RFC 1997 NO_EXPORT, RFC 3765 NOPEER semantics).
	SubSuppress
	// SubAnnounce: export only/also to an AS or in a location.
	SubAnnounce
	// SubSetAttribute: set local-pref or prepend on export.
	SubSetAttribute
	// SubBlackhole: discard traffic to the prefix (RFC 7999).
	SubBlackhole

	// Information subcategories.

	// SubLocation: where the route was received (city/country/region).
	SubLocation
	// SubRelationship: the relationship with the neighbor the route was
	// learned from.
	SubRelationship
	// SubROV: Route Origin Validation status.
	SubROV
	// SubOtherInfo: other metadata (ingress interface, route type, ...).
	SubOtherInfo
)

// Category returns the coarse category a subcategory belongs to.
func (s SubCategory) Category() Category {
	switch s {
	case SubSuppress, SubAnnounce, SubSetAttribute, SubBlackhole:
		return CatAction
	case SubLocation, SubRelationship, SubROV, SubOtherInfo:
		return CatInformation
	default:
		return CatUnknown
	}
}

// String returns the subcategory name used in reports and dictionary
// files.
func (s SubCategory) String() string {
	switch s {
	case SubSuppress:
		return "suppress"
	case SubAnnounce:
		return "announce"
	case SubSetAttribute:
		return "set-attribute"
	case SubBlackhole:
		return "blackhole"
	case SubLocation:
		return "location"
	case SubRelationship:
		return "relationship"
	case SubROV:
		return "rov"
	case SubOtherInfo:
		return "other-info"
	default:
		return "none"
	}
}

// ParseSubCategory parses the String form.
func ParseSubCategory(s string) (SubCategory, bool) {
	for _, sc := range []SubCategory{
		SubNone, SubSuppress, SubAnnounce, SubSetAttribute, SubBlackhole,
		SubLocation, SubRelationship, SubROV, SubOtherInfo,
	} {
		if sc.String() == s {
			return sc, true
		}
	}
	return SubNone, false
}
