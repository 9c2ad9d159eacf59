package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables in testdata/")

// goldenCfg is the smoke configuration the golden tables were recorded
// at: small enough to run every experiment in about a second, large
// enough that every estimator path executes.
var goldenCfg = Config{N: 1500, Trials: 1, Seed: 7, EMFMaxIter: 50}

// goldenSpec is the committed task spec the "spec" experiment sweeps.
const goldenSpec = "../../specs/variance.json"

// TestGoldenTables pins every experiment's CSV output byte for byte.
// Any refactor of the estimation surface must leave these tables
// unchanged; regenerate deliberately with go test -run TestGoldenTables
// -update when an estimator's numbers are meant to change.
func TestGoldenTables(t *testing.T) {
	sp, err := core.LoadSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range Experiments() {
		t.Run(exp, func(t *testing.T) {
			cfg := goldenCfg
			if exp == "spec" {
				cfg.Spec = &sp
			}
			tables, err := Run(exp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, tb := range tables {
				tb.CSV(&got)
			}
			path := filepath.Join("testdata", "golden", exp+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s table drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", exp, path, got.Bytes(), want)
			}
		})
	}
}
