// Package runstore persists run history — benchmark sweeps, serving
// load curves, experiment batches — as a small append-only columnar
// store: one Run per line of a JSON Lines file, each Run carrying
// identifying labels (scheduler, routing policy, mix, commit, ...)
// plus flat per-metric rows. The shape follows benchmark-results
// schemas from end-to-end system analyzers: a run is the unit of
// provenance, metrics are the unit of comparison, and everything is
// filterable without a database.
//
// The store is deliberately crash-tolerant in the one way an
// append-only log needs to be: a torn final line (the writer died
// mid-append) is detected at Open, dropped, and truncated away, so
// the next Append lands on a clean line boundary. Corruption anywhere
// before the final line is real damage and surfaces as an error.
package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FileName is the log file within a store directory.
const FileName = "runs.jsonl"

// Metric is one measured value of a run.
type Metric struct {
	// Name identifies the metric within the run, unit suffix included
	// (e.g. "aimt.ServeStream ns/op", "p99 cycles") so names are
	// unique keys for diffing.
	Name string `json:"name"`
	// Value is the measurement.
	Value float64 `json:"value"`
	// Unit is the measurement unit ("ns/op", "cycles", "rate", ...).
	// Diffing uses it to decide which direction is a regression.
	Unit string `json:"unit,omitempty"`
}

// Run is one recorded run: provenance plus metric rows.
type Run struct {
	// ID is unique within a store; Append assigns run-NNNNNN when empty.
	ID string `json:"id"`
	// Time is the RFC 3339 wall-clock time the run was recorded;
	// Append fills it when empty.
	Time string `json:"time,omitempty"`
	// Commit is the git commit the run was produced from, when known.
	Commit string `json:"commit,omitempty"`
	// Source is the producing driver: "bench", "serve", "cluster",
	// "sweep" or "seed" for ingested history.
	Source string `json:"source"`
	// Labels are free-form identifying dimensions: scheduler, policy,
	// mix, load, arch, goos, ...
	Labels map[string]string `json:"labels,omitempty"`
	// Metrics are the run's measurements.
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric's value.
func (r Run) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Label returns a label value, "" when absent.
func (r Run) Label(key string) string { return r.Labels[key] }

// Store is an append-only run log under one directory. All methods
// are safe for concurrent use.
type Store struct {
	// Now supplies append timestamps; tests pin it for determinism.
	// Defaults to time.Now.
	Now func() time.Time

	dir  string
	path string

	mu   sync.Mutex
	runs []Run
	seq  int
	// recovered counts torn trailing lines dropped at Open (0 or 1).
	recovered int
}

// Open loads (creating if needed) the run store under dir. A torn
// final line — a crashed writer's partial append — is dropped and
// truncated away; corruption before the final line is an error.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{Now: time.Now, dir: dir, path: filepath.Join(dir, FileName)}
	s.seq = 1
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}

	valid := 0 // byte offset just past the last well-formed line
	lineNo := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		end := len(data)
		if nl >= 0 {
			end = off + nl + 1
		}
		line := bytes.TrimSpace(data[off:end])
		lineNo++
		if len(line) == 0 {
			valid = end
			off = end
			continue
		}
		var r Run
		if err := json.Unmarshal(line, &r); err != nil {
			// Only a torn tail is recoverable: nothing after this line
			// may hold data.
			if len(bytes.TrimSpace(data[end:])) > 0 {
				return nil, fmt.Errorf("runstore: %s line %d: corrupt entry not at tail: %w", s.path, lineNo, err)
			}
			s.recovered = 1
			break
		}
		s.runs = append(s.runs, r)
		valid = end
		off = end
	}
	if valid < len(data) {
		if err := os.Truncate(s.path, int64(valid)); err != nil {
			return nil, fmt.Errorf("runstore: truncating torn tail: %w", err)
		}
	}
	s.seq = nextSeq(s.runs)
	return s, nil
}

// nextSeq returns one past the highest run-NNNNNN sequence in use, so
// assigned IDs never collide with stored runs.
func nextSeq(runs []Run) int {
	max := 0
	for _, r := range runs {
		var n int
		if _, err := fmt.Sscanf(r.ID, "run-%06d", &n); err == nil && n > max {
			max = n
		}
	}
	return max + 1
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Recovered reports whether Open dropped a torn trailing line.
func (s *Store) Recovered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered > 0
}

// Len returns the number of stored runs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Runs returns all runs in append order.
func (s *Store) Runs() []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Run, len(s.runs))
	copy(out, s.runs)
	return out
}

// Get returns the run with the given ID (the latest, if the log holds
// the ID more than once).
func (s *Store) Get(id string) (Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.runs) - 1; i >= 0; i-- {
		if s.runs[i].ID == id {
			return s.runs[i], true
		}
	}
	return Run{}, false
}

// Append records a run: assigns ID and timestamp when empty, writes
// one JSON line, and returns the stored form.
func (s *Store) Append(r Run) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.ID == "" {
		r.ID = fmt.Sprintf("run-%06d", s.seq)
		s.seq++
	}
	if r.Time == "" {
		now := s.Now
		if now == nil {
			now = time.Now
		}
		r.Time = now().UTC().Format(time.RFC3339)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return Run{}, err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return Run{}, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return Run{}, err
	}
	if err := f.Close(); err != nil {
		return Run{}, err
	}
	s.runs = append(s.runs, r)
	return r, nil
}

// Query filters runs; zero fields match everything.
type Query struct {
	// Source, when non-empty, must equal Run.Source.
	Source string
	// Labels must all be present with equal values.
	Labels map[string]string
}

// Match reports whether the run satisfies the query.
func (q Query) Match(r Run) bool {
	if q.Source != "" && r.Source != q.Source {
		return false
	}
	for k, v := range q.Labels {
		if r.Labels[k] != v {
			return false
		}
	}
	return true
}

// Select returns the runs matching q, in append order.
func (s *Store) Select(q Query) []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Run
	for _, r := range s.runs {
		if q.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

// CurrentCommit returns the working tree's short git commit, or ""
// when git (or a repository) is unavailable — runs recorded outside a
// checkout simply have no commit.
func CurrentCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
