package steane

import (
	"testing"
	"testing/quick"
)

func wordFromMask(mask uint8) [N]int {
	var w [N]int
	for q := 0; q < N; q++ {
		w[q] = int(mask>>q) & 1
	}
	return w
}

// Property: the syndrome map is linear: s(a ⊕ b) = s(a) ⊕ s(b).
func TestQuickSyndromeLinear(t *testing.T) {
	f := func(a, b uint8) bool {
		wa, wb := wordFromMask(a), wordFromMask(b)
		var wab [N]int
		for q := 0; q < N; q++ {
			wab[q] = wa[q] ^ wb[q]
		}
		return Syndrome(wab) == Syndrome(wa)^Syndrome(wb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: multiplying by a stabilizer row changes neither the syndrome
// nor the decoded logical value (stabilizers are the code's gauge).
func TestQuickStabilizerGauge(t *testing.T) {
	f := func(mask uint8, rowRaw uint8) bool {
		w := wordFromMask(mask)
		row := int(rowRaw) % 3
		var gauged [N]int
		copy(gauged[:], w[:])
		for _, q := range Supports[row] {
			gauged[q] ^= 1
		}
		return Syndrome(gauged) == Syndrome(w) && DecodeBlock(gauged) == DecodeBlock(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: multiplying by the logical operator (all ones) flips the
// decoded value while preserving the syndrome.
func TestQuickLogicalFlip(t *testing.T) {
	f := func(mask uint8) bool {
		w := wordFromMask(mask)
		var flipped [N]int
		for q := 0; q < N; q++ {
			flipped[q] = w[q] ^ 1
		}
		return Syndrome(flipped) == Syndrome(w) && DecodeBlock(flipped) == 1-DecodeBlock(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding is idempotent — correcting a corrected word changes
// nothing further.
func TestQuickDecodeIdempotent(t *testing.T) {
	f := func(mask uint8) bool {
		w := wordFromMask(mask)
		CorrectWord(&w)
		if Syndrome(w) != 0 {
			return false
		}
		again := w
		return !CorrectWord(&again) && again == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Exhaustive complement of the properties: every one of the 128 error
// words decodes to the coset of its nearest codeword (distance-3 promise:
// weight-1 words never fail).
func TestAllWordsDistanceThreePromise(t *testing.T) {
	for mask := 0; mask < 128; mask++ {
		w := wordFromMask(uint8(mask))
		weight := 0
		for _, b := range w {
			weight += b
		}
		if weight <= 1 && DecodeBlock(w) != 0 {
			t.Errorf("weight-%d word %07b failed to decode", weight, mask)
		}
	}
}
