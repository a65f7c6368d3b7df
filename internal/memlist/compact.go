package memlist

// Block-compacted case-base representation, the §5 "compacted attribute
// block representation" the paper projects would roughly double
// retrieval speed. Where the fig. 4/5 layout chains (ID, value) entry
// pairs and reference pointers through linear lists — one 16-bit word
// per fetch, one NULL entry per local list — the compacted layout is a
// structure of arrays: every ID stream, value stream and offset table
// is a densely packed 16-bit block, and per-type/per-impl *extents*
// (half-open index ranges into the next level's block) replace the
// pointer-chased sub-lists. A scan never dereferences a pointer and
// never steps over interleaved non-key words, so the software kernel
// streams IDs at one comparison per word and the dual-port hardware
// fetch picks up entry pairs in a single cycle.
//
// Flat word image (all 16-bit words, serialized like every other
// Image):
//
//	header:  [ magic, version, #types, #impls, #pairs, #supp ]
//	types:   TypeIDs  [#types]        ascending IDs
//	         ImplOff  [#types+1]      extents into ImplIDs
//	impls:   ImplIDs  [#impls]        ascending per type extent
//	         AttrOff  [#impls+1]      extents into AttrIDs/AttrVals
//	attrs:   AttrIDs  [#pairs]        ascending per impl extent
//	         AttrVals [#pairs]
//	supp:    SuppIDs  [#supp]         ascending
//	         SuppLo   [#supp]
//	         SuppHi   [#supp]
//	         SuppRecip[#supp]         UQ16 reciprocals of (1+dmax)
//	footer:  [ EndMarker ]
//
// The trailing EndMarker is explicit and must be the image's final
// word: DecodeCompact rejects truncated or padded images, exactly like
// the (post-bugfix) fig. 4/5 decoders.

import (
	"fmt"

	"qosalloc/internal/casebase"
	"qosalloc/internal/fixed"
)

const (
	// CompactMagic marks a compacted case-base image ("CB" over a
	// 16-bit bus).
	CompactMagic uint16 = 0xCB16
	// CompactVersion is the current layout version.
	CompactVersion uint16 = 1
	// compactHeaderWords is the fixed header size.
	compactHeaderWords = 6
)

// CompactCaseBase is the decoded structure-of-arrays view of a
// block-compacted case base: the implementation tree and the attribute-
// supplemental table in one representation, extents instead of
// pointers. All slices are index-aligned as documented on each field;
// callers must treat them as immutable.
type CompactCaseBase struct {
	// TypeIDs lists the function type IDs in ascending order.
	TypeIDs []uint16
	// ImplOff has len(TypeIDs)+1 entries; the implementations of
	// TypeIDs[t] occupy ImplIDs[ImplOff[t]:ImplOff[t+1]].
	ImplOff []uint16
	// ImplIDs lists implementation IDs, ascending within each type
	// extent.
	ImplIDs []uint16
	// AttrOff has len(ImplIDs)+1 entries; the attribute pairs of
	// ImplIDs[i] occupy AttrIDs/AttrVals[AttrOff[i]:AttrOff[i+1]].
	AttrOff []uint16
	// AttrIDs and AttrVals are the packed attribute blocks, IDs
	// ascending within each implementation extent.
	AttrIDs  []uint16
	AttrVals []uint16
	// SuppIDs/SuppLo/SuppHi/SuppRecip are the supplemental table as
	// four parallel arrays, IDs ascending.
	SuppIDs   []uint16
	SuppLo    []uint16
	SuppHi    []uint16
	SuppRecip []uint16
}

// NumTypes returns the number of function types.
func (cc *CompactCaseBase) NumTypes() int { return len(cc.TypeIDs) }

// NumImpls returns the total number of implementation variants.
func (cc *CompactCaseBase) NumImpls() int { return len(cc.ImplIDs) }

// Words returns the flat-image word count of the compacted layout.
func (cc *CompactCaseBase) Words() int {
	return CompactWordsShape(len(cc.TypeIDs), len(cc.ImplIDs), len(cc.AttrIDs), len(cc.SuppIDs))
}

// CompactWordsShape returns the flat-image word count for a compacted
// case base with the given section sizes: header + types + extents +
// impls + extents + 2·pairs + 4·supp + terminator.
func CompactWordsShape(types, impls, pairs, supp int) int {
	return compactHeaderWords + types + (types + 1) + impls + (impls + 1) + 2*pairs + 4*supp + 1
}

// CompactWords returns the word count for the regular shape Table 3
// prices: types × implsPerType × attrsPerImpl with attrUniverse
// supplemental entries. Compare TreeWords + SupplementalWords for the
// uncompacted footprint of the same shape.
func CompactWords(types, implsPerType, attrsPerImpl, attrUniverse int) int {
	return CompactWordsShape(types, types*implsPerType, types*implsPerType*attrsPerImpl, attrUniverse)
}

// CompactFromCaseBase builds the compacted representation directly from
// a validated case base and its registry — the design-time path a list
// generator would take.
func CompactFromCaseBase(cb *casebase.CaseBase) (*CompactCaseBase, error) {
	cc := &CompactCaseBase{}
	for _, ft := range cb.Types() {
		cc.TypeIDs = append(cc.TypeIDs, uint16(ft.ID))
		cc.ImplOff = append(cc.ImplOff, uint16(len(cc.ImplIDs)))
		for i := range ft.Impls {
			im := &ft.Impls[i]
			cc.ImplIDs = append(cc.ImplIDs, uint16(im.ID))
			cc.AttrOff = append(cc.AttrOff, uint16(len(cc.AttrIDs)))
			for _, p := range im.Attrs {
				cc.AttrIDs = append(cc.AttrIDs, uint16(p.ID))
				cc.AttrVals = append(cc.AttrVals, uint16(p.Value))
			}
		}
	}
	cc.ImplOff = append(cc.ImplOff, uint16(len(cc.ImplIDs)))
	cc.AttrOff = append(cc.AttrOff, uint16(len(cc.AttrIDs)))
	reg := cb.Registry()
	for _, id := range reg.IDs() {
		d, _ := reg.Lookup(id)
		cc.SuppIDs = append(cc.SuppIDs, uint16(id))
		cc.SuppLo = append(cc.SuppLo, uint16(d.Lo))
		cc.SuppHi = append(cc.SuppHi, uint16(d.Hi))
		cc.SuppRecip = append(cc.SuppRecip, uint16(fixed.Recip(d.DMax())))
	}
	if err := cc.check(); err != nil {
		return nil, err
	}
	return cc, nil
}

// CompactFromImages re-encodes validated fig. 4/5 images into the
// compacted representation — the migration path for memory images that
// exist only in their uncompacted serialized form. The inputs pass
// through the strict DecodeTree/DecodeSupplemental validation first, so
// a compacted image can never be built from words the linear-list
// encoders could not have emitted.
func CompactFromImages(tree, supp *Image) (*CompactCaseBase, error) {
	types, err := DecodeTree(tree)
	if err != nil {
		return nil, fmt.Errorf("memlist: compacting tree image: %w", err)
	}
	entries, err := DecodeSupplemental(supp)
	if err != nil {
		return nil, fmt.Errorf("memlist: compacting supplemental image: %w", err)
	}
	cc := &CompactCaseBase{}
	for _, dt := range types {
		cc.TypeIDs = append(cc.TypeIDs, dt.ID)
		cc.ImplOff = append(cc.ImplOff, uint16(len(cc.ImplIDs)))
		for _, di := range dt.Impls {
			cc.ImplIDs = append(cc.ImplIDs, di.ID)
			cc.AttrOff = append(cc.AttrOff, uint16(len(cc.AttrIDs)))
			for _, da := range di.Attrs {
				cc.AttrIDs = append(cc.AttrIDs, da.ID)
				cc.AttrVals = append(cc.AttrVals, da.Value)
			}
		}
	}
	cc.ImplOff = append(cc.ImplOff, uint16(len(cc.ImplIDs)))
	cc.AttrOff = append(cc.AttrOff, uint16(len(cc.AttrIDs)))
	for _, e := range entries {
		cc.SuppIDs = append(cc.SuppIDs, e.ID)
		cc.SuppLo = append(cc.SuppLo, e.Lo)
		cc.SuppHi = append(cc.SuppHi, e.Hi)
		cc.SuppRecip = append(cc.SuppRecip, uint16(e.Recip))
	}
	if err := cc.check(); err != nil {
		return nil, err
	}
	return cc, nil
}

// check validates the structural invariants shared by the builders and
// the decoder: section sizes within the 16-bit address space, extents
// monotone and closed, IDs inside [1, 0xFFFE] and ascending within
// their scope.
func (cc *CompactCaseBase) check() error {
	nT, nI, nP, nS := len(cc.TypeIDs), len(cc.ImplIDs), len(cc.AttrIDs), len(cc.SuppIDs)
	if nT > 0xFFFF || nI > 0xFFFF || nP > 0xFFFF || nS > 0xFFFF {
		return fmt.Errorf("memlist: compact section exceeds 16-bit count (types=%d impls=%d pairs=%d supp=%d)", nT, nI, nP, nS)
	}
	if total := cc.Words(); total > 1<<16 {
		return fmt.Errorf("memlist: compact image needs %d words, exceeding the 16-bit address space", total)
	}
	if len(cc.ImplOff) != nT+1 || len(cc.AttrOff) != nI+1 {
		return fmt.Errorf("memlist: compact extents malformed (|ImplOff|=%d for %d types, |AttrOff|=%d for %d impls)",
			len(cc.ImplOff), nT, len(cc.AttrOff), nI)
	}
	if len(cc.AttrVals) != nP {
		return fmt.Errorf("memlist: compact attr streams misaligned (%d IDs, %d values)", nP, len(cc.AttrVals))
	}
	if len(cc.SuppLo) != nS || len(cc.SuppHi) != nS || len(cc.SuppRecip) != nS {
		return fmt.Errorf("memlist: compact supplemental streams misaligned")
	}
	if err := checkExtents(cc.ImplOff, nI, "impl"); err != nil {
		return err
	}
	if err := checkExtents(cc.AttrOff, nP, "attr"); err != nil {
		return err
	}
	if err := checkIDStream(cc.TypeIDs, "type"); err != nil {
		return err
	}
	for t := 0; t < nT; t++ {
		if err := checkIDStream(cc.ImplIDs[cc.ImplOff[t]:cc.ImplOff[t+1]], "impl"); err != nil {
			return fmt.Errorf("%w (type %d)", err, cc.TypeIDs[t])
		}
	}
	for i := 0; i < nI; i++ {
		if err := checkIDStream(cc.AttrIDs[cc.AttrOff[i]:cc.AttrOff[i+1]], "attribute"); err != nil {
			return fmt.Errorf("%w (impl %d)", err, cc.ImplIDs[i])
		}
	}
	if err := checkIDStream(cc.SuppIDs, "supplemental"); err != nil {
		return err
	}
	return nil
}

// checkExtents validates an offset table: first 0, last equal to the
// target section length, never decreasing.
func checkExtents(off []uint16, end int, kind string) error {
	if off[0] != 0 {
		return fmt.Errorf("memlist: %s extents start at %d, want 0", kind, off[0])
	}
	if int(off[len(off)-1]) != end {
		return fmt.Errorf("memlist: %s extents close at %d, want %d", kind, off[len(off)-1], end)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("memlist: %s extents decrease at %d", kind, i)
		}
	}
	return nil
}

// checkIDStream validates one ID scope: [1, 0xFFFE], strictly
// ascending.
func checkIDStream(ids []uint16, kind string) error {
	prev := uint16(0)
	for _, id := range ids {
		if id == 0 || id == 0xFFFF {
			return fmt.Errorf("memlist: reserved %s ID %d in compact image", kind, id)
		}
		if id <= prev {
			return fmt.Errorf("memlist: %s IDs not ascending in compact image", kind)
		}
		prev = id
	}
	return nil
}

// EncodeCompact serializes the compacted case base into its flat word
// image.
func (cc *CompactCaseBase) EncodeCompact() (*Image, error) {
	if err := cc.check(); err != nil {
		return nil, err
	}
	im := &Image{Words: make([]uint16, 0, cc.Words())}
	im.Words = append(im.Words, CompactMagic, CompactVersion,
		uint16(len(cc.TypeIDs)), uint16(len(cc.ImplIDs)), uint16(len(cc.AttrIDs)), uint16(len(cc.SuppIDs)))
	im.Words = append(im.Words, cc.TypeIDs...)
	im.Words = append(im.Words, cc.ImplOff...)
	im.Words = append(im.Words, cc.ImplIDs...)
	im.Words = append(im.Words, cc.AttrOff...)
	im.Words = append(im.Words, cc.AttrIDs...)
	im.Words = append(im.Words, cc.AttrVals...)
	im.Words = append(im.Words, cc.SuppIDs...)
	im.Words = append(im.Words, cc.SuppLo...)
	im.Words = append(im.Words, cc.SuppHi...)
	im.Words = append(im.Words, cc.SuppRecip...)
	im.Words = append(im.Words, EndMarker)
	if len(im.Words) != cc.Words() {
		return nil, fmt.Errorf("memlist: internal error, emitted %d compact words, planned %d", len(im.Words), cc.Words())
	}
	return im, nil
}

// DecodeCompact parses and validates a compacted image. It applies the
// same strictness as the fig. 4/5 decoders — reserved IDs rejected,
// explicit terminator required — plus the layout's own invariants:
// magic/version, section sizes that sum exactly to the image length,
// monotone closed extents. The returned view copies nothing back into
// the image; mutating the image after a successful decode is undefined.
func DecodeCompact(im *Image) (*CompactCaseBase, error) {
	if len(im.Words) < compactHeaderWords+1 {
		return nil, fmt.Errorf("memlist: compact image too short (%d words)", len(im.Words))
	}
	if im.Words[0] != CompactMagic {
		return nil, fmt.Errorf("memlist: compact magic %#04x, want %#04x", im.Words[0], CompactMagic)
	}
	if im.Words[1] != CompactVersion {
		return nil, fmt.Errorf("memlist: compact version %d, want %d", im.Words[1], CompactVersion)
	}
	nT, nI, nP, nS := int(im.Words[2]), int(im.Words[3]), int(im.Words[4]), int(im.Words[5])
	want := CompactWordsShape(nT, nI, nP, nS)
	if len(im.Words) != want {
		return nil, fmt.Errorf("memlist: compact image is %d words, header shape needs %d", len(im.Words), want)
	}
	if im.Words[len(im.Words)-1] != EndMarker {
		return nil, fmt.Errorf("memlist: compact image missing terminator")
	}
	a := compactHeaderWords
	section := func(n int) []uint16 {
		s := im.Words[a : a+n]
		a += n
		return s
	}
	cc := &CompactCaseBase{
		TypeIDs: section(nT),
		ImplOff: section(nT + 1),
		ImplIDs: section(nI),
		AttrOff: section(nI + 1),
		AttrIDs: section(nP),
	}
	cc.AttrVals = section(nP)
	cc.SuppIDs = section(nS)
	cc.SuppLo = section(nS)
	cc.SuppHi = section(nS)
	cc.SuppRecip = section(nS)
	if err := cc.check(); err != nil {
		return nil, err
	}
	return cc, nil
}

// CompactMemoryReport extends the Table 3 memory accounting with the
// compacted layout: the uncompacted tree+supplemental words, their
// compacted equivalent, and the saving.
type CompactMemoryReport struct {
	UncompactedWords int // TreeWords + SupplementalWords
	CompactWords     int // flat compacted image
	SavedWords       int
	SavedFraction    float64
}

// CompactReport prices the compacted layout against the uncompacted
// fig. 4/5 layout for a regular shape (types × implsPerType ×
// attrsPerImpl, attrUniverse supplemental entries) — the Table 3 delta.
func CompactReport(types, implsPerType, attrsPerImpl, attrUniverse int) CompactMemoryReport {
	un := TreeWords(types, implsPerType, attrsPerImpl) + SupplementalWords(attrUniverse)
	co := CompactWords(types, implsPerType, attrsPerImpl, attrUniverse)
	r := CompactMemoryReport{UncompactedWords: un, CompactWords: co, SavedWords: un - co}
	if un > 0 {
		r.SavedFraction = float64(un-co) / float64(un)
	}
	return r
}
