package klayout

import (
	"context"
	"reflect"
	"testing"

	"opendrc/internal/synth"
)

// TestTilingWorkerCountDeterminism requires the pooled tiling mode to report
// the identical sorted violation list for every worker count, and to fill in
// both the measured wall time and the modeled makespan.
func TestTilingWorkerCountDeterminism(t *testing.T) {
	lo := load(t, "aes", 0.3)
	for _, r := range synth.Deck() {
		var refViols any
		var refTiles int
		for _, workers := range []int{1, 8} {
			res, err := CheckContext(context.Background(), lo, r, Options{Mode: Tiling, TileSize: 3000, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", r.ID, workers, err)
			}
			if res.Tiles > 0 && (res.Wall <= 0 || res.Modeled <= 0) {
				t.Fatalf("%s workers=%d: wall=%v modeled=%v, want both > 0",
					r.ID, workers, res.Wall, res.Modeled)
			}
			if refViols == nil {
				refViols, refTiles = res.Violations, res.Tiles
				continue
			}
			if !reflect.DeepEqual(res.Violations, refViols) {
				t.Fatalf("%s: workers=8 violations differ from workers=1", r.ID)
			}
			if res.Tiles != refTiles {
				t.Fatalf("%s: tiles %d vs %d", r.ID, res.Tiles, refTiles)
			}
		}
	}
}
