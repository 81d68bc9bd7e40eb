package storage_test

import (
	"fmt"
	"sort"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// TestIndexSeekYieldsEachVisibleRowOnce pins the distinct-row filter of the
// locked index traversals on both sides of its fixed-array capacity: every
// row is updated more than 8 times, so the (k, v) index holds one lingering
// entry per superseded version, and the prefix k = 1 matches more than 8
// distinct rows while k = 2 matches fewer. Seek and range scan must yield
// each visible row exactly once, and the baseline engine's index-driven read
// must match its unindexed full scan.
func TestIndexSeekYieldsEachVisibleRowOnce(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("t", types.NewSchema(
		types.Column{Qualifier: "t", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "k", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	ix, err := tab.AddIndex("t_kv", false, "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	const updates = 10
	matching := map[int64]int{1: 12, 2: 4} // rows per k
	var ops []storage.WriteOp
	for id := 0; id < matching[1]+matching[2]; id++ {
		k := int64(1)
		if id >= matching[1] {
			k = 2
		}
		ops = append(ops, storage.WriteOp{Table: "t", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(int64(id)), types.NewInt(k), types.NewInt(0)}})
	}
	apply := func(ops []storage.WriteOp) {
		t.Helper()
		results, _ := db.ApplyOps(ops)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("op %d: %v", i, r.Err)
			}
		}
	}
	apply(ops)
	for u := 1; u <= updates; u++ {
		apply([]storage.WriteOp{{Table: "t", Kind: storage.WUpdate,
			Set: []storage.ColSet{{Col: 2, Val: &expr.Const{Val: types.NewInt(int64(u))}}}}})
	}
	ts := db.SnapshotTS()

	check := func(label string, k int64, traverse func(fn func(storage.RowID, types.Row) bool)) {
		t.Helper()
		seen := map[storage.RowID]int{}
		traverse(func(rid storage.RowID, row types.Row) bool {
			seen[rid]++
			if row[1].AsInt() != k || row[2].AsInt() != updates {
				t.Errorf("%s k=%d: row %d = %v, want the latest version", label, k, rid, row)
			}
			return true
		})
		if len(seen) != matching[k] {
			t.Errorf("%s k=%d: %d distinct rows, want %d", label, k, len(seen), matching[k])
		}
		for rid, n := range seen {
			if n != 1 {
				t.Errorf("%s k=%d: row %d yielded %d times, want once", label, k, rid, n)
			}
		}
	}
	for k := range matching {
		key := btree.Key{types.NewInt(k)}
		check("seek", k, func(fn func(storage.RowID, types.Row) bool) { tab.IndexSeekAt(ix, key, ts, fn) })
		check("scan", k, func(fn func(storage.RowID, types.Row) bool) { tab.IndexScanAt(ix, key, key, true, true, ts, fn) })
	}

	eng := baseline.New(db, baseline.SystemXLike)
	read := func(q string) []string {
		t.Helper()
		stmt, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := stmt.ExecAt(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = types.EncodeKey(r...)
		}
		sort.Strings(out)
		return out
	}
	for k, want := range matching {
		seek := read(fmt.Sprintf("SELECT id, v FROM t WHERE k = %d", k))
		full := read(fmt.Sprintf("SELECT id, v FROM t WHERE k + 0 = %d", k)) // no index applies
		if len(seek) != want || len(full) != want {
			t.Fatalf("baseline k=%d: %d rows via the index, %d via a full scan, want %d", k, len(seek), len(full), want)
		}
		for i := range seek {
			if seek[i] != full[i] {
				t.Fatalf("baseline k=%d: index read differs from full scan at row %d", k, i)
			}
		}
	}
}
