// Package store provides the storage substrate of §V: an embedded table
// store standing in for the MySQL cluster, with primary-and-replica
// failover semantics. The feature management module keeps profiles here
// and serves its warm path from its own table of exact rows.
package store

import (
	"errors"
	"sync"
)

// ErrUnavailable is returned when neither primary nor replica can serve.
var ErrUnavailable = errors.New("store: no replica available")

// ErrNotFound is returned for missing rows.
var ErrNotFound = errors.New("store: row not found")

// Table is a simple embedded table: string primary key to opaque row.
// It stands in for one MySQL table.
type Table struct {
	mu   sync.RWMutex
	rows map[string]any
	// down simulates a crashed database instance for failover tests.
	down bool
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{rows: make(map[string]any)} }

// Put inserts or replaces a row.
func (t *Table) Put(key string, row any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down {
		return ErrUnavailable
	}
	t.rows[key] = row
	return nil
}

// Get fetches a row.
func (t *Table) Get(key string) (any, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.down {
		return nil, ErrUnavailable
	}
	row, ok := t.rows[key]
	if !ok {
		return nil, ErrNotFound
	}
	return row, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// SetDown toggles the simulated-crash state.
func (t *Table) SetDown(down bool) {
	t.mu.Lock()
	t.down = down
	t.mu.Unlock()
}

// ReplicatedTable is a primary table with a synchronously updated
// replica and automatic read failover — the "primary-and-replica
// switching" of §V.
type ReplicatedTable struct {
	primary *Table
	replica *Table
}

// NewReplicatedTable returns an empty replicated table.
func NewReplicatedTable() *ReplicatedTable {
	return &ReplicatedTable{primary: NewTable(), replica: NewTable()}
}

// Put writes through to both primary and replica; it succeeds if at
// least one write lands (split-brain is out of scope — writes re-sync
// on recovery in real deployments).
func (r *ReplicatedTable) Put(key string, row any) error {
	e1 := r.primary.Put(key, row)
	e2 := r.replica.Put(key, row)
	if e1 != nil && e2 != nil {
		return ErrUnavailable
	}
	return nil
}

// Get reads from the primary, failing over to the replica when the
// primary is down.
func (r *ReplicatedTable) Get(key string) (any, error) {
	row, err := r.primary.Get(key)
	if errors.Is(err, ErrUnavailable) {
		return r.replica.Get(key)
	}
	return row, err
}

// Primary exposes the primary for fault injection in tests.
func (r *ReplicatedTable) Primary() *Table { return r.primary }

// Replica exposes the replica for fault injection in tests.
func (r *ReplicatedTable) Replica() *Table { return r.replica }
