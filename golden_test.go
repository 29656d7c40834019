package aimt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenExperiments pins every experiment's rendered output
// byte-for-byte, so the paper-figure tables can never drift silently.
// After an intentional change, regenerate with:
//
//	go test -run TestGoldenExperiments -update
func TestGoldenExperiments(t *testing.T) {
	cfg := PaperConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from %s (use -update if intentional):\n--- got\n%s--- want\n%s",
					e.ID, path, buf.String(), want)
			}
		})
	}
}

// TestGoldenFilesComplete fails when an experiment is added without a
// golden file (or a stale golden lingers for a removed one).
func TestGoldenFilesComplete(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	want := map[string]bool{}
	for _, e := range Experiments() {
		want[e.ID+".golden"] = true
	}
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".golden" {
			got[ent.Name()] = true
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("missing golden file %s (regenerate with -update)", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("stale golden file %s has no experiment", name)
		}
	}
}
