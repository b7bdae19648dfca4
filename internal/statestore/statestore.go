// Package statestore implements the keyed operator state backend: named
// keyed states with snapshot/restore to opaque bytes, used both by
// checkpoints and by live state transfer to standby tasks.
package statestore

import (
	"slices"
	"strings"
)

// KeyedState is one named map from partitioning key to value. Access is
// single-threaded (the task's main loop), so no locking is done here.
// Mutations are tracked in a dirty set so incremental snapshots (§6.4)
// can ship only the keys changed since the previous snapshot.
type KeyedState struct {
	name  string
	data  map[uint64]any
	dirty map[uint64]struct{}
}

func (k *KeyedState) markDirty(key uint64) {
	if k.dirty == nil {
		k.dirty = make(map[uint64]struct{})
	}
	k.dirty[key] = struct{}{}
}

// Name returns the state's registered name.
func (k *KeyedState) Name() string { return k.name }

// Get returns the value for key, or nil when absent.
func (k *KeyedState) Get(key uint64) any { return k.data[key] }

// Put stores v under key.
func (k *KeyedState) Put(key uint64, v any) {
	k.data[key] = v
	k.markDirty(key)
}

// Delete removes key.
func (k *KeyedState) Delete(key uint64) {
	delete(k.data, key)
	k.markDirty(key)
}

// Len reports the number of keys.
func (k *KeyedState) Len() int { return len(k.data) }

// Range calls f for every entry until f returns false. Iteration order is
// unspecified; state mutations that depend on it must sort first (see
// SortedKeys).
func (k *KeyedState) Range(f func(key uint64, v any) bool) {
	for key, v := range k.data {
		if !f(key, v) {
			return
		}
	}
}

// SortedKeys returns all keys in ascending order, for deterministic
// iteration (window firing must not depend on map order).
func (k *KeyedState) SortedKeys() []uint64 {
	keys := make([]uint64, 0, len(k.data))
	for key := range k.data {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// AppendList treats the value under key as a []any list and appends v.
func (k *KeyedState) AppendList(key uint64, v any) {
	k.Put(key, append(k.List(key), v))
}

// List returns the []any list under key (nil when absent).
func (k *KeyedState) List(key uint64) []any {
	list, _ := k.data[key].([]any)
	return list
}

// Clear removes every entry.
func (k *KeyedState) Clear() {
	for key := range k.data {
		k.markDirty(key)
	}
	k.data = make(map[uint64]any)
}

// Store holds all named keyed states of one task.
type Store struct {
	states map[string]*KeyedState
	// gen counts Restores. Restore replaces every KeyedState, so a caller
	// that keeps a handle from Keyed re-resolves it when gen has moved.
	gen uint64
	// Snapshot scratch, kept between checkpoints so that encoding one
	// allocates nothing but its output: the states in name order, and
	// the sorted keys each contributes to the section being encoded.
	order []*KeyedState
	keys  []uint64
	runs  []keyRun
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{states: make(map[string]*KeyedState)}
}

// Keyed returns the named keyed state, creating it on first use.
func (s *Store) Keyed(name string) *KeyedState {
	st, ok := s.states[name]
	if !ok {
		st = &KeyedState{name: name, data: make(map[uint64]any)}
		s.states[name] = st
	}
	return st
}

// Generation changes whenever Restore has replaced the store's contents
// and with them every *KeyedState that Keyed handed out before.
func (s *Store) Generation() uint64 { return s.gen }

// Names returns the registered state names in sorted order.
func (s *Store) Names() []string {
	names := make([]string, 0, len(s.states))
	for n := range s.states {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// selection names the keys of each state that one snapshot section holds.
type selection int

const (
	selAll     selection = iota // every key: a full snapshot
	selChanged                  // dirty keys that hold a value: a delta's changes
	selDeleted                  // dirty keys that hold none: a delta's deletes
)

// keyRun is one state's share of a section: its selected keys, sorted,
// in the store's key scratch.
type keyRun struct {
	st   *KeyedState
	keys []uint64
}

// begin resets the snapshot scratch and puts the states in name order.
func (s *Store) begin() {
	s.order, s.keys, s.runs = s.order[:0], s.keys[:0], s.runs[:0]
	for _, st := range s.states {
		s.order = append(s.order, st)
	}
	slices.SortFunc(s.order, func(a, b *KeyedState) int { return strings.Compare(a.name, b.name) })
}

// plan lays out one section after begin: per state in name order, the
// selected keys sorted. A delta section leaves out the states it selects
// nothing from; a full one keeps empty states.
func (s *Store) plan(sel selection) []keyRun {
	first := len(s.runs)
	for _, st := range s.order {
		from := len(s.keys)
		if sel == selAll {
			for k := range st.data {
				s.keys = append(s.keys, k)
			}
		} else {
			for k := range st.dirty {
				if _, live := st.data[k]; live == (sel == selChanged) {
					s.keys = append(s.keys, k)
				}
			}
		}
		if keys := s.keys[from:]; len(keys) > 0 || sel == selAll {
			slices.Sort(keys)
			s.runs = append(s.runs, keyRun{st, keys})
		}
	}
	return s.runs[first:]
}

// Walk visits every state in name order with its keys ascending: the
// order Snapshot encodes and the audit fingerprint hashes. keys is the
// store's scratch, valid until the next Walk or snapshot.
func (s *Store) Walk(visit func(st *KeyedState, keys []uint64) error) error {
	s.begin()
	for _, r := range s.plan(selAll) {
		if err := visit(r.st, r.keys); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot serializes every state to bytes: a versioned binary frame of
// registry-encoded entries (see snapshot.go), deterministic for equal
// logical state. It sizes the frame, allocates it once and fills it, so
// len == cap on return. A value of a type with no registered codec is an
// error naming the state, the key and the type.
func (s *Store) Snapshot() ([]byte, error) {
	s.begin()
	runs := s.plan(selAll)
	out := appendMagic(make([]byte, 0, snapshotHeadLen+sectionSize(runs, true)), magicKindFull)
	return appendSection(out, runs, true)
}

// Restore replaces the store contents with a snapshot produced by
// Snapshot. A nil snapshot restores the empty store; anything else that
// is not a versioned full frame is ErrCorrupt. Dirty tracking is reset:
// the next delta snapshot is computed against the restore point.
func (s *Store) Restore(snapshot []byte) error {
	*s = Store{states: make(map[string]*KeyedState), gen: s.gen + 1}
	if len(snapshot) == 0 {
		return nil
	}
	if err := checkMagic(snapshot, magicKindFull); err != nil {
		return err
	}
	r := frameReader{b: snapshot, i: snapshotHeadLen}
	flat := readStateSection(&r)
	if err := r.done(); err != nil {
		return err
	}
	for name, data := range flat {
		s.states[name] = &KeyedState{name: name, data: data}
	}
	return nil
}

// DeltaSnapshot serializes only the entries changed since the previous
// (full or delta) snapshot and resets the dirty sets — the §6.4
// incremental checkpoint: the dispatch cost depends on the state's delta
// rather than its absolute size. Sized, allocated and filled like
// Snapshot.
func (s *Store) DeltaSnapshot() ([]byte, error) {
	s.begin()
	changes, deletes := s.plan(selChanged), s.plan(selDeleted)
	size := snapshotHeadLen + sectionSize(changes, true) + sectionSize(deletes, false)
	out, err := appendSection(appendMagic(make([]byte, 0, size), magicKindDelta), changes, true)
	if err != nil {
		return nil, err
	}
	s.ResetDirty()
	return appendSection(out, deletes, false)
}

// ResetDirty clears dirty tracking without snapshotting (used right after
// a full snapshot, whose delta baseline is the full image). The sets are
// emptied in place, so the next epoch's Puts refill them without regrowing.
func (s *Store) ResetDirty() {
	for _, st := range s.states {
		clear(st.dirty)
	}
}

// ApplyDelta merges a DeltaSnapshot into the store — the snapshot-store
// side of incremental checkpointing, reconstructing the full image. The
// frame is decoded whole before anything is applied: a corrupt delta
// leaves the store as it was.
func (s *Store) ApplyDelta(b []byte) error {
	if err := checkMagic(b, magicKindDelta); err != nil {
		return err
	}
	r := frameReader{b: b, i: snapshotHeadLen}
	changes, deletes := readStateSection(&r), readDeletes(&r)
	if err := r.done(); err != nil {
		return err
	}
	for name, entries := range changes {
		st := s.Keyed(name)
		for key, v := range entries {
			st.data[key] = v
		}
	}
	for name, keys := range deletes {
		st := s.Keyed(name)
		for _, key := range keys {
			delete(st.data, key)
		}
	}
	return nil
}
