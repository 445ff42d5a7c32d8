package workloads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ProgramFromJSON decodes a statistical workload description, so users
// can profile their own memory-behaviour models without writing Go. The
// format mirrors the Program/Phase structs, e.g.:
//
//	{
//	  "Name": "myapp",
//	  "Seed": 7,
//	  "Phases": [{
//	    "Name": "hot_loop", "Region": 1, "Insts": 2000000,
//	    "LoadFrac": 0.28, "StoreFrac": 0.08, "FPFrac": 0.1,
//	    "LoopLen": 48, "CodeBytes": 16384,
//	    "WSBytes": 8388608, "HotBytes": 24576,
//	    "ColdFrac": 0.0005,
//	    "WarmBytes": 1048576, "WarmFrac": 0.0004,
//	    "StrideBytes": 8, "StreamFrac": 0.01,
//	    "DepFrac": 0.4
//	  }]
//	}
func ProgramFromJSON(data []byte) (*Program, error) {
	var p Program
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("workloads: decoding program: %w", err)
	}
	if p.Name == "" {
		p.Name = "custom"
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadProgram reads a JSON workload description from a file.
func LoadProgram(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ProgramFromJSON(data)
}
