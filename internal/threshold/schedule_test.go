package threshold

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// scalarAgree is the per-trial agreeing-syndromes rule, stated one trial
// at a time: extract once; a non-trivial syndrome re-extracts until two
// successive extractions agree or maxSyndromeRounds is reached, and the
// trial settles on its last syndrome.
func scalarAgree(extract func() int) int {
	syn := extract()
	if syn == 0 {
		return 0
	}
	use := syn
	prev := syn
	for round := 1; round < maxSyndromeRounds; round++ {
		next := extract()
		if next == prev {
			use = next
			break
		}
		use = next
		prev = next
	}
	return use
}

// laneScript holds each lane's syndrome (0..7) for its successive
// extractions.
type laneScript [64][maxSyndromeRounds]int

// checkAgreeLoop runs agreeLoop over an extraction that replays sc lane
// by lane, and compares every lane's settled syndrome and extraction
// count with scalarAgree run on that lane's script alone. Lanes outside
// active must never be extracted and settle on the trivial syndrome.
func checkAgreeLoop(t *testing.T, name string, sc *laneScript, active uint64) {
	t.Helper()
	var n [64]int // extractions per lane
	extract := func(mask uint64) (s0, s1, s2 uint64) {
		if mask == 0 || mask&^active != 0 {
			t.Fatalf("%s: extraction mask %#x (active %#x)", name, mask, active)
		}
		for lane := 0; lane < 64; lane++ {
			if mask>>lane&1 == 0 {
				continue
			}
			if n[lane] == maxSyndromeRounds {
				t.Fatalf("%s: lane %d extracted more than %d times", name, lane, maxSyndromeRounds)
			}
			v := uint64(sc[lane][n[lane]])
			n[lane]++
			s0 |= v & 1 << lane
			s1 |= v >> 1 & 1 << lane
			s2 |= v >> 2 & 1 << lane
		}
		return s0, s1, s2
	}
	u0, u1, u2 := agreeLoop(active, extract)
	for lane := 0; lane < 64; lane++ {
		settled := int(u0>>lane&1 | (u1>>lane&1)<<1 | (u2>>lane&1)<<2)
		want, wantN := 0, 0
		if active>>lane&1 == 1 {
			want = scalarAgree(func() int {
				wantN++
				return sc[lane][wantN-1]
			})
		}
		if settled != want || n[lane] != wantN {
			t.Errorf("%s: lane %d script %v: settled %d after %d extractions, the scalar rule %d after %d",
				name, lane, sc[lane], settled, n[lane], want, wantN)
		}
	}
}

// TestAgreeLoopMatchesScalarRule: the masked agreeing-syndromes rule the
// schedule runs on 64 lanes settles each lane exactly as the per-trial
// rule does, with the same number of extractions.
func TestAgreeLoopMatchesScalarRule(t *testing.T) {
	cases := []struct {
		name   string
		script [maxSyndromeRounds]int
	}{
		{"trivial first syndrome", [maxSyndromeRounds]int{0, 5, 5}},
		{"agreement on round 2", [maxSyndromeRounds]int{5, 5, 3}},
		{"agreement on round 3", [maxSyndromeRounds]int{3, 6, 6}},
		{"no agreement by round 3", [maxSyndromeRounds]int{3, 6, 2}},
		{"no agreement, back to the first", [maxSyndromeRounds]int{4, 2, 4}},
		{"trivial second syndrome", [maxSyndromeRounds]int{7, 0, 0}},
		{"trivial third syndrome", [maxSyndromeRounds]int{7, 1, 0}},
	}
	for _, c := range cases {
		var sc laneScript
		for lane := range sc {
			sc[lane] = c.script
		}
		checkAgreeLoop(t, c.name, &sc, ^uint64(0))
		checkAgreeLoop(t, c.name+", lanes 3 and 40 only", &sc, 1<<3|1<<40)
	}
	// Every case side by side in one block, so lanes settle on different
	// rounds.
	var mixed laneScript
	for lane := range mixed {
		mixed[lane] = cases[lane%len(cases)].script
	}
	checkAgreeLoop(t, "mixed", &mixed, ^uint64(0))

	rng := rand.New(rand.NewPCG(28, 6))
	for i := 0; i < 2000; i++ {
		// A small value range makes agreement common.
		span := 8
		if i%2 == 1 {
			span = 3
		}
		var sc laneScript
		for lane := range sc {
			for r := range sc[lane] {
				sc[lane][r] = rng.IntN(span)
			}
		}
		active := ^uint64(0)
		if i%3 == 0 {
			active = rng.Uint64() | 1
		}
		checkAgreeLoop(t, fmt.Sprintf("random block %d", i), &sc, active)
	}
}
