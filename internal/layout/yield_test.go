package layout

import (
	"math"
	"testing"
)

func TestTileYield(t *testing.T) {
	if y := TileYield(0); y != 1 {
		t.Errorf("perfect fabrication should yield 1, got %g", y)
	}
	// 1e-7 per cell over 7473 cells ≈ 99.925% per tile.
	y := TileYield(1e-7)
	want := math.Pow(1-1e-7, float64(TilePitchCells))
	if math.Abs(y-want) > 1e-12 {
		t.Errorf("TileYield = %g, want %g", y, want)
	}
	if y < 0.999 {
		t.Errorf("1e-7 cell defects should keep tile yield high, got %g", y)
	}
	// Heavy defects kill tiles.
	if TileYield(1e-3) > 0.01 {
		t.Error("1e-3 cell defects should destroy most tiles")
	}
}

func TestSparesNeeded(t *testing.T) {
	// Perfect yield: no spares.
	s, err := SparesNeeded(1000, 1, 0.999)
	if err != nil || s != 0 {
		t.Errorf("perfect yield needs %d spares (%v)", s, err)
	}
	// 99% tile yield over 10000 tiles: expect ≈100 failures + margin.
	s, err = SparesNeeded(10000, 0.99, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if s < 100 || s > 200 {
		t.Errorf("spares for 99%% yield = %d, expected ≈100-150", s)
	}
	// Spares grow as yield drops.
	s2, _ := SparesNeeded(10000, 0.95, 0.999)
	if s2 <= s {
		t.Error("lower yield must demand more spares")
	}
	// Hopeless yield errors out.
	if _, err := SparesNeeded(1000, 1e-6, 0.999); err == nil {
		t.Error("absurdly low yield should fail")
	}
}

func TestSparesMeetTarget(t *testing.T) {
	// Verify the provision actually achieves the target via the normal
	// model it used: mean usable minus z·sd must cover the requirement.
	required, yield, target := 37971, TileYield(3e-8), 0.999
	spares, err := SparesNeeded(required, yield, target)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(required + spares)
	mean, sd := n*yield, math.Sqrt(n*yield*(1-yield))
	if mean-3.09*sd < float64(required) { // z(0.999) ≈ 3.09
		t.Errorf("provision of %d spares misses the 99.9%% target", spares)
	}
}

func TestProvisionedFloorplan(t *testing.T) {
	spares, err := SparesNeeded(1000, TileYield(1e-6), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFloorplan(1000 + spares)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Q != 1000+spares {
		t.Errorf("floorplan holds %d tiles, want %d", fp.Q, 1000+spares)
	}
	if spares <= 0 {
		t.Error("1e-6 cell defects over 7473-cell tiles should demand spares")
	}
	// The Shor-128 machine with realistic defects stays buildable.
	spares, err = SparesNeeded(37971, TileYield(1e-8), 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if float64(spares)/37971 > 0.05 {
		t.Errorf("Shor-128 spare overhead %.1f%%, expected a few percent at most",
			100*float64(spares)/37971)
	}
}

func TestNormalQuantileSanity(t *testing.T) {
	// Φ⁻¹(0.5) = 0; Φ⁻¹(0.975) ≈ 1.96.
	if q := normalQuantile(0.5); math.Abs(q) > 1e-6 {
		t.Errorf("median quantile = %g", q)
	}
	if q := normalQuantile(0.975); math.Abs(q-1.96) > 0.01 {
		t.Errorf("97.5%% quantile = %g, want ≈1.96", q)
	}
}
