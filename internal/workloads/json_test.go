package workloads

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const validJSON = `{
  "Name": "myapp",
  "Seed": 7,
  "Phases": [{
    "Name": "hot_loop", "Region": 1, "Insts": 50000,
    "LoadFrac": 0.28, "StoreFrac": 0.08,
    "LoopLen": 48, "CodeBytes": 16384,
    "WSBytes": 8388608, "HotBytes": 24576,
    "ColdFrac": 0.0005,
    "DepFrac": 0.4
  }]
}`

func TestProgramFromJSON(t *testing.T) {
	p, err := ProgramFromJSON([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "myapp" || len(p.Phases) != 1 || p.Phases[0].LoopLen != 48 {
		t.Fatalf("decoded %+v", p)
	}
	// The decoded program must actually generate instructions.
	n := 0
	var in = struct{}{}
	_ = in
	st := p.Stream()
	insts := drain(st)
	n = len(insts)
	if n < 50000 {
		t.Fatalf("generated %d instructions, want >= 50000", n)
	}
}

func TestProgramFromJSONRejectsBad(t *testing.T) {
	cases := []string{
		`{`,
		`{"Phases": []}`,
		`{"Phases": [{"Name": "x", "Insts": 0}]}`,
		`{"Phases": [{"Name": "x", "Insts": 1000, "LoopLen": 48, "CodeBytes": 4096, "WSBytes": 1048576, "HotBytes": 4096, "Bogus": 1}]}`,
	}
	for i, c := range cases {
		if _, err := ProgramFromJSON([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	orig, err := SPECProgram("mcf", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ProgramFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := drain(orig.Stream()), drain(back.Stream())
	if len(a) != len(b) {
		t.Fatal("round trip changed the program")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs after round trip", i)
		}
	}
}

func TestLoadProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(validJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "myapp" {
		t.Fatal("wrong program loaded")
	}
	if _, err := LoadProgram(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
