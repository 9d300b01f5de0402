package codes

import (
	"fmt"

	"qla/internal/pauli"
)

// Decoder is a minimum-weight syndrome-table decoder: it maps every
// syndrome reachable by an error of weight ≤ maxWeight to a
// lowest-weight representative error producing it.
type Decoder struct {
	code      *Code
	maxWeight int
	table     map[uint64]pauli.String
}

// NewDecoder enumerates all errors of weight 0..maxWeight and builds
// the syndrome table. Enumeration visits weights in ascending order, so
// each syndrome keeps its lowest-weight representative. The table size
// is bounded by 2^(n-k); maxWeight is typically t = (d-1)/2.
func NewDecoder(c *Code, maxWeight int) (*Decoder, error) {
	if maxWeight < 0 || maxWeight > c.N {
		return nil, fmt.Errorf("codes: bad decoder weight budget %d", maxWeight)
	}
	d := &Decoder{code: c, maxWeight: maxWeight, table: map[uint64]pauli.String{
		0: pauli.NewIdentity(c.N),
	}}
	positions := make([]int, maxWeight)
	assign := make([]byte, maxWeight)
	letters := []byte{'X', 'Y', 'Z'}
	for w := 1; w <= maxWeight; w++ {
		var overPositions func(start, depth int)
		var overLetters func(depth int)
		overLetters = func(depth int) {
			if depth == w {
				p := pauli.NewIdentity(c.N)
				for i := 0; i < w; i++ {
					p.Set(positions[i], assign[i])
				}
				s := c.SyndromeOf(p)
				if _, ok := d.table[s]; !ok {
					d.table[s] = p
				}
				return
			}
			for _, l := range letters {
				assign[depth] = l
				overLetters(depth + 1)
			}
		}
		overPositions = func(start, depth int) {
			if depth == w {
				overLetters(0)
				return
			}
			for q := start; q <= c.N-(w-depth); q++ {
				positions[depth] = q
				overPositions(q+1, depth+1)
			}
		}
		overPositions(0, 0)
	}
	return d, nil
}

// TableSize returns the number of distinct syndromes in the table.
func (d *Decoder) TableSize() int { return len(d.table) }

// Lookup returns the stored correction for a syndrome, or false if the
// syndrome is outside the table (an error heavier than the budget).
func (d *Decoder) Lookup(syndrome uint64) (pauli.String, bool) {
	p, ok := d.table[syndrome]
	if !ok {
		return pauli.String{}, false
	}
	return p.Clone(), true
}

// Decode returns the correction the decoder would apply for the given
// physical error.
func (d *Decoder) Decode(err pauli.String) (pauli.String, bool) {
	return d.Lookup(d.code.SyndromeOf(err))
}

// Corrects reports whether the decoder exactly corrects the error: the
// correction it returns composes with the error to an element of the
// stabilizer group (identity action on the logical state).
func (d *Decoder) Corrects(err pauli.String) bool {
	corr, ok := d.Decode(err)
	if !ok {
		return false
	}
	residual := err.Mul(corr)
	for q := 0; q < residual.N; q++ {
		if residual.At(q) != 'I' {
			return d.code.IsStabilizer(residual)
		}
	}
	return true // residual is identity
}
