package storage

import (
	"shareddb/internal/btree"
	"shareddb/internal/types"
)

// Locked index look-ups.
//
// Before generation pipelining, shared operators resolved row visibility
// through a lock-free ReadView: the engine's generation barrier guaranteed
// no write ran while the operator dataflow executed. With up to
// Config.MaxInFlightGenerations read phases overlapping later generations'
// write phases, that guarantee is gone — B-tree traversals and version
// chains must be protected against concurrent mutation. These helpers hold
// the table read lock across one traversal and resolve visibility at a
// fixed snapshot, so callers (shared index joins, the query-at-a-time
// baseline) stay correct while writes land concurrently.

// IndexSeekAt seeks ix for key (equality, prefix semantics) and yields
// every distinct visible row at snapshot ts whose visible version still
// carries the sought key (entries for superseded versions linger in the
// tree until GC). fn returning false stops the traversal. The table read
// lock is held for the whole seek; fn must not call back into this table's
// locking methods.
func (t *Table) IndexSeekAt(ix *Index, key btree.Key, ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var seen seenRows
	ix.tree.SeekEQ(key, func(rid uint64) bool {
		if seen.has(rid) {
			return true
		}
		row, visible := t.visibleLocked(rid, ts)
		if !visible || !indexKeyMatches(ix, row, key) {
			return true
		}
		seen.add(rid)
		return fn(rid, row)
	})
}

// IndexScanAt scans ix over [lo, hi] and yields every distinct visible row
// at snapshot ts whose visible version still carries the entry's key, under
// the table read lock. fn returning false stops the traversal.
func (t *Table) IndexScanAt(ix *Index, lo, hi btree.Key, loIncl, hiIncl bool, ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var seen seenRows
	ix.tree.Scan(lo, hi, loIncl, hiIncl, func(key btree.Key, rid uint64) bool {
		if seen.has(rid) {
			return true
		}
		row, visible := t.visibleLocked(rid, ts)
		if !visible || !indexKeyMatches(ix, row, key) {
			// Stale entry for a superseded version: the entry carrying the
			// visible version's key will handle this rid.
			return true
		}
		seen.add(rid)
		return fn(rid, row)
	})
}

// seenRows is the distinct-row filter of one index traversal: entries of
// superseded versions linger in the tree until GC, so a traversal can meet
// one RowID several times. Most traversals yield a handful of rows, checked
// linearly in a fixed array that lives on the caller's stack; past its
// capacity the set moves to a map, so large traversals stay O(n).
type seenRows struct {
	few  [8]RowID
	n    int
	many map[RowID]struct{}
}

func (s *seenRows) has(rid RowID) bool {
	if s.many != nil {
		_, ok := s.many[rid]
		return ok
	}
	for _, r := range s.few[:s.n] {
		if r == rid {
			return true
		}
	}
	return false
}

func (s *seenRows) add(rid RowID) {
	if s.many == nil {
		if s.n < len(s.few) {
			s.few[s.n] = rid
			s.n++
			return
		}
		s.many = make(map[RowID]struct{}, 2*len(s.few))
		for _, r := range s.few {
			s.many[r] = struct{}{}
		}
	}
	s.many[rid] = struct{}{}
}

// indexKeyMatches reports whether row carries key under ix (prefix
// semantics for short keys).
func indexKeyMatches(ix *Index, row types.Row, key btree.Key) bool {
	for i := range key {
		if i >= len(ix.Cols) {
			break
		}
		if !row[ix.Cols[i]].Equal(key[i]) {
			return false
		}
	}
	return true
}
