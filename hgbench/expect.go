package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// expected.json holds the recorded outputs every op is checked against:
// state and transition counts, table sizes and default-seed simulator
// figures, keyed by section (workload) and op. `hgbench -record` rewrites
// it from a run of the current tree.
//
//go:embed expected.json
var expectedJSON []byte

// expectations is the correctness gate's reference table.
type expectations struct {
	mu     sync.Mutex
	record bool // replace the sections a run touches with observed values
	table  map[string]map[string][]int64
	fresh  map[string]bool // sections already reset by this recording
}

func loadExpectations(data []byte, record bool) (*expectations, error) {
	e := &expectations{record: record, fresh: map[string]bool{}}
	if err := json.Unmarshal(data, &e.table); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// has reports whether the section has recorded values (always true while
// recording).
func (e *expectations) has(section string) bool {
	if e.record {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.table[section] != nil
}

// verify checks got against the recorded values of section/key, or
// records them.
func (e *expectations) verify(section, key string, got ...int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.record {
		if !e.fresh[section] {
			e.table[section] = map[string][]int64{}
			e.fresh[section] = true
		}
		e.table[section][key] = got
		return nil
	}
	want, ok := e.table[section][key]
	if !ok {
		return fmt.Errorf("%s/%s: no recorded expectation", section, key)
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s/%s: got %d values %v, recorded %d %v", section, key, len(got), got, len(want), want)
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s/%s: got %v, want %v", section, key, got, want)
		}
	}
	return nil
}

// save writes the table (record mode) as indented JSON.
func (e *expectations) save(path string) error {
	e.mu.Lock()
	data, err := json.MarshalIndent(e.table, "", " ")
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
