package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"qosalloc/internal/attr"
	"qosalloc/internal/casebase"
	"qosalloc/internal/workload"
)

// shape is the case-base shape every workload runs at: the paper's
// Table 3 capacity point (15 types × 10 impls × 10 attrs) with five
// constraints per request. Scan cost depends only on the shape, so
// every printed result carries it as its key.
type shape struct {
	Types, Impls, Attrs, Universe, Constraints int
	CBSeed                                     int64
}

var tableThree = shape{Types: 15, Impls: 10, Attrs: 10, Universe: 10, Constraints: 5, CBSeed: 1}

func (s shape) key(repeat float64) string {
	return fmt.Sprintf("%dx%dx%d/c%d/repeat%.2f", s.Types, s.Impls, s.Attrs, s.Constraints, repeat)
}

func (s shape) caseBase() (*casebase.CaseBase, error) {
	cb, _, err := workload.GenCaseBase(workload.CaseBaseSpec{
		Types: s.Types, ImplsPerType: s.Impls, AttrsPerImpl: s.Attrs,
		AttrUniverse: s.Universe, Seed: s.CBSeed,
	})
	return cb, err
}

// template fixes a request's function type and constrained attributes;
// the values vary.
type template struct {
	typ   casebase.TypeID
	defs  []attr.Def
	space uint64 // distinct value combinations: product of range sizes
	a, b  uint64 // affine bijection q -> (a*q + b) mod space
}

// uniqueGen maps an index k to a request such that distinct indices
// give distinct signatures: k picks a template (k mod len), and no two
// templates share both type and attribute set; k / len picks a value
// combination through the template's affine bijection.
// No memory grows with k and no two clients can collide as long as
// they draw disjoint indices.
type uniqueGen struct {
	tmpls []template
}

// minSpace bounds the value combinations a template must offer, far
// above any index a timed run can reach.
const minSpace = 1 << 28

func newUniqueGen(cb *casebase.CaseBase, sh shape, seed int64) (*uniqueGen, error) {
	r := rand.New(rand.NewSource(seed))
	reg := cb.Registry()
	ids := reg.IDs()
	g := &uniqueGen{}
	const subsetsPerType = 8
	for _, ft := range cb.Types() {
		used := map[string]bool{} // a type's templates constrain distinct attribute sets
		n := 0
		for tries := 0; n < subsetsPerType && tries < 1000; tries++ {
			perm := r.Perm(len(ids))[:sh.Constraints]
			t := template{typ: ft.ID, space: 1}
			for _, pi := range perm {
				d, _ := reg.Lookup(ids[pi])
				t.defs = append(t.defs, d)
				hi, lo := bits.Mul64(t.space, uint64(d.Hi-d.Lo)+1)
				if hi != 0 {
					return nil, fmt.Errorf("template value space overflows")
				}
				t.space = lo
			}
			if t.space < minSpace {
				continue
			}
			sort.Slice(t.defs, func(i, j int) bool { return t.defs[i].ID < t.defs[j].ID })
			var set []byte
			for _, d := range t.defs {
				set = binary.LittleEndian.AppendUint16(set, uint16(d.ID))
			}
			if used[string(set)] {
				continue
			}
			used[string(set)] = true
			t.b = uint64(r.Int63()) % t.space
			for {
				t.a = 1 + uint64(r.Int63())%(t.space-1)
				if gcd(t.a, t.space) == 1 {
					break
				}
			}
			g.tmpls = append(g.tmpls, t)
			n++
		}
		if n < subsetsPerType {
			return nil, fmt.Errorf("type %d: attribute ranges too narrow for unique requests", ft.ID)
		}
	}
	return g, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// request returns the k-th unique request: constraints sorted by
// attribute ID with equal weights, as casebase.NewRequest(…).EqualWeights()
// builds them, in a single allocation.
func (g *uniqueGen) request(k uint64) casebase.Request {
	t := &g.tmpls[k%uint64(len(g.tmpls))]
	q := k / uint64(len(g.tmpls))
	if q >= t.space {
		panic("unique request index beyond the template value space")
	}
	hi, lo := bits.Mul64(t.a, q)
	v := bits.Rem64(hi, lo, t.space)
	v = (v + t.b) % t.space
	cs := make([]casebase.Constraint, len(t.defs))
	w := 1.0 / float64(len(cs))
	for i, d := range t.defs {
		size := uint64(d.Hi-d.Lo) + 1
		cs[i] = casebase.Constraint{ID: d.ID, Value: d.Lo + attr.Value(v%size), Weight: w}
		v /= size
	}
	return casebase.Request{Type: t.typ, Constraints: cs}
}
