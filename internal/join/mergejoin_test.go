package join

import (
	stdsort "sort"
	"testing"

	"sgxbench/internal/core"
	"sgxbench/internal/mem"
	"sgxbench/internal/platform"
	sortop "sgxbench/internal/sort"
)

// mkSorted allocates a sorted table from the given (key, payload) rows.
func mkSorted(env *core.Env, name string, rows []uint64) *mem.U64Buf {
	b := env.Space.AllocU64(name, len(rows), env.DataRegion())
	copy(b.D, rows)
	stdsort.Slice(b.D, func(i, j int) bool { return sortop.TupLess(b.D[i], b.D[j]) })
	return b
}

// refMergeCount is the oracle join cardinality over raw rows.
func refMergeCount(r, s []uint64) uint64 {
	m := map[uint32]uint64{}
	for _, v := range r {
		m[mem.TupleKey(v)]++
	}
	var total uint64
	for _, v := range s {
		total += m[mem.TupleKey(v)]
	}
	return total
}

// TestMergeJoinSortedDuplicates pins the exported contract: duplicate
// keys on either side produce the full cross product of the equal-key
// runs (a duplicated build key replays the matching probe run), and
// rows carrying the maximum representable key are joined too.
func TestMergeJoinSortedDuplicates(t *testing.T) {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.SGXDiE})
	top := ^uint32(0)
	r := []uint64{
		mem.MakeTuple(3, 1), mem.MakeTuple(3, 2), mem.MakeTuple(3, 3), // triple build key
		mem.MakeTuple(5, 4), mem.MakeTuple(7, 5), mem.MakeTuple(7, 6), // double build key
		mem.MakeTuple(top, 7), mem.MakeTuple(top, 8), // max-key duplicates
	}
	s := []uint64{
		mem.MakeTuple(1, 10), mem.MakeTuple(3, 11), mem.MakeTuple(3, 12), // double probe run
		mem.MakeTuple(5, 13), mem.MakeTuple(6, 14), mem.MakeTuple(7, 15),
		mem.MakeTuple(top, 16), mem.MakeTuple(top, 17),
	}
	want := refMergeCount(r, s) // 3*2 + 1 + 2*1 + 2*2 = 13
	for _, threads := range []int{1, 2, 4} {
		R := mkSorted(env, "R", r)
		S := mkSorted(env, "S", s)
		g := env.NewGroup(threads)
		res := MergeJoinSorted(env, g, R, len(r), S, len(s), 8, Options{})
		if res.Matches != want {
			t.Errorf("T=%d: matches=%d want %d", threads, res.Matches, want)
		}
	}
}

// TestMergeJoinSortedMaterializedDuplicates checks the materialized rows
// against the pair oracle under duplication.
func TestMergeJoinSortedMaterializedDuplicates(t *testing.T) {
	env := core.NewEnv(core.Options{Plat: platform.XeonGold6326().Scaled(256), Setting: core.PlainCPU})
	r := []uint64{mem.MakeTuple(2, 1), mem.MakeTuple(2, 2), mem.MakeTuple(4, 3)}
	s := []uint64{mem.MakeTuple(2, 20), mem.MakeTuple(2, 21), mem.MakeTuple(4, 22)}
	R := mkSorted(env, "R", r)
	S := mkSorted(env, "S", s)
	g := env.NewGroup(1)
	res := MergeJoinSorted(env, g, R, len(r), S, len(s), 5, Options{Materialize: true})
	var got []uint64
	for _, rows := range res.Output {
		got = append(got, rows...)
	}
	want := map[uint64]int{}
	for _, rv := range r {
		for _, sv := range s {
			if mem.TupleKey(rv) == mem.TupleKey(sv) {
				want[mem.MakeTuple(mem.TuplePayload(sv), mem.TuplePayload(rv))]++
			}
		}
	}
	if len(got) != 5 {
		t.Fatalf("materialized %d rows, want 5", len(got))
	}
	for _, row := range got {
		if want[row] == 0 {
			t.Fatalf("unexpected output row %#x", row)
		}
		want[row]--
	}
}
