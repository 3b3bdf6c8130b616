// Package query composes the repo's operators — filter scans, gathers,
// joins and the partitioned group-by — into end-to-end analytical query
// pipelines, the workload class the paper's title names but its
// experiments only probe operator by operator.
//
// The pipelines are built from internal/plan's composable nodes: each
// query shape is a plan tree executed over ONE exec.Group with
// pre-allocated Scratch, so cache, TLB and prefetcher state carry
// across operator boundaries and every intermediate is allocated in the
// environment's data region — EPC-resident under SGX DiE, exactly where
// DuckDB-style engines hold intermediates inside an enclave. The trees
// reproduce the original hand-wired pipelines operator call for
// operator call, so their simulated cycles, checks and statistics are
// bit-identical to the golden entries recorded before the refactor.
//
// Seven fixed query shapes ship, plus the ~20-query planner suite
// (Suite) whose join/aggregation strategies the cost-based planner in
// internal/plan picks per setting:
//
//	q1.filter-agg              σ(fact) → gather fact tuples → γ(fk; payload)
//	q2.filter-join-agg         σ(fact) → gather → fact ⋈ dim (RHO) → γ(dim attr)
//	q3.join-agg                fact ⋈ dim (PHT) → γ(dim attr)
//	q4.filter-sort-limit       σ(fact) → gather → ORDER BY key LIMIT k
//	q5.mergejoin-agg           sort(fact), sort(dim) → merge ⋈ (MWAY) → γ(dim attr)
//	q2s.filter-join-agg-spill  q2 on the spill pair: GRACE ⋈ → spill γ
//	q3s.join-agg-spill         q3 on the spill pair: GRACE ⋈ → spill γ
//
// All stages run on the engine's batched APIs with per-op reference
// decompositions, so whole pipelines are bit-identical (results AND
// simulated statistics) between the fast and reference engine paths;
// with pre-allocated Scratch intermediates they are also run-to-run
// deterministic at any thread count, which is what the CI golden gate
// compares (q3's shared PHT table preclaims its insert slots in input
// order, so even the multi-threaded build repeats bit-identically).
package query

import (
	"fmt"

	"sgxbench/internal/agg"
	"sgxbench/internal/core"
	"sgxbench/internal/plan"
)

// Pipeline is one executable query shape.
type Pipeline struct {
	Name string
	Run  func(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result
}

// Pipeline names (the bench workload identifiers).
const (
	Q1Name  = "q1.filter-agg"
	Q2Name  = "q2.filter-join-agg"
	Q3Name  = "q3.join-agg"
	Q4Name  = "q4.filter-sort-limit"
	Q5Name  = "q5.mergejoin-agg"
	Q2SName = "q2s.filter-join-agg-spill"
	Q3SName = "q3s.join-agg-spill"
)

// Q1FilterAgg is σ(fact) → gather → γ(fk; SUM/COUNT/MIN/MAX payload):
// the selective aggregation query. The gather is data-dependent random
// access; the group-by keys are the fact foreign keys.
func Q1FilterAgg(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q1Name,
		plan.GroupBy{Input: plan.Gather{Input: plan.Filter{Input: plan.Scan{}}}, Sel: agg.ByKey})
}

// Q2FilterJoinAgg is σ(fact) → gather → fact ⋈ dim (RHO, materialized)
// → γ(dim attr): the full star query over the paper's best join. Join
// outputs land in per-thread pre-allocated buffers and feed the
// aggregation as segments.
func Q2FilterJoinAgg(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q2Name,
		plan.GroupBy{
			Input: plan.HashJoin{Input: plan.Gather{Input: plan.Filter{Input: plan.Scan{}}}},
			Sel:   agg.ByPayload,
		})
}

// Q3JoinAgg is fact ⋈ dim (PHT, materialized) → γ(dim attr): the
// unfiltered join-aggregation over the no-partitioning join, whose
// shared-table build is the paper's most SSB-sensitive operator.
func Q3JoinAgg(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q3Name,
		plan.GroupBy{
			Input: plan.HashJoin{Input: plan.Scan{}, Shared: true},
			Sel:   agg.ByPayload,
		})
}

// Q4FilterSortLimit is σ(fact) → gather → ORDER BY key LIMIT k: the
// selective top-k query. The shared filter→gather prefix of q1/q2 feeds
// the heap-based top-k operator; the k survivors are emitted in
// ascending key order. The result's Groups reports the emitted row count and
// TopRows the rows themselves (ORDER BY key, ties by tuple).
func Q4FilterSortLimit(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q4Name,
		plan.TopK{Input: plan.Gather{Input: plan.Filter{Input: plan.Scan{}}}})
}

// Q5MergeJoinAgg is sort(fact), sort(dim) → merge join → γ(dim attr):
// the sort-based star query, q2/q3's contrast workload. Both inputs are
// sorted with internal/sort's run-sort + multi-way merge as explicit
// pipeline stages, merge-joined with join.MergeJoinSorted (MWAY's final
// pass) into the pre-allocated per-thread output buffers, and aggregated
// by the dimension attribute — the same γ as q2/q3, so any end-to-end
// slowdown difference is attributable to the join path's access pattern.
func Q5MergeJoinAgg(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q5Name,
		plan.GroupBy{Input: plan.MergeJoin{Input: plan.Scan{}}, Sel: agg.ByPayload})
}

// Q2SFilterJoinAggSpill is σ(fact) → gather → fact ⋈ dim (GRACE,
// materialized) → spill γ(dim attr): the q2 star query on the
// spill-partitioned operator pair, which detects an EPC capacity limit
// on the Env and stages partition runs in untrusted memory so the
// pipeline degrades gracefully instead of collapsing.
func Q2SFilterJoinAggSpill(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q2SName,
		plan.SpillGroupBy{
			Input: plan.GraceJoin{Input: plan.Gather{Input: plan.Filter{Input: plan.Scan{}}}},
			Sel:   agg.ByPayload,
		})
}

// Q3SJoinAggSpill is fact ⋈ dim (GRACE, materialized) → spill γ(dim
// attr): the unfiltered q3 join-aggregation on the spill-partitioned
// operator pair.
func Q3SJoinAggSpill(env *core.Env, ds *plan.Dataset, opt plan.Options) *plan.Result {
	return plan.Execute(env, ds, opt, Q3SName,
		plan.SpillGroupBy{Input: plan.GraceJoin{Input: plan.Scan{}}, Sel: agg.ByPayload})
}

// All returns the shipped fixed pipelines in report order. The q2s/q3s
// shapes are the q2/q3 star queries rebuilt from the spill-partitioned
// join and group-by; without an EPC capacity limit on the Env they run
// fully resident, and under one they degrade gracefully (the
// oversubscription gate's spill-aware side).
func All() []Pipeline {
	return []Pipeline{
		{Name: Q1Name, Run: Q1FilterAgg},
		{Name: Q2Name, Run: Q2FilterJoinAgg},
		{Name: Q3Name, Run: Q3JoinAgg},
		{Name: Q4Name, Run: Q4FilterSortLimit},
		{Name: Q5Name, Run: Q5MergeJoinAgg},
		{Name: Q2SName, Run: Q2SFilterJoinAggSpill},
		{Name: Q3SName, Run: Q3SJoinAggSpill},
	}
}

// Suite returns the planner's ~20-query star/snowflake suite
// (internal/plan's Suite) as executable pipelines: each Run ensures the
// snowflake chain its depth needs, then lets the cost-based planner
// pick the join/aggregation strategies for the environment's setting
// and EPC regime before executing the lowered tree.
func Suite() []Pipeline {
	qs := plan.Suite()
	out := make([]Pipeline, len(qs))
	for i, q := range qs {
		q := q
		out[i] = Pipeline{Name: q.Name, Run: q.Run}
	}
	return out
}

// ByName returns the fixed pipeline or suite query with the given name.
func ByName(name string) (Pipeline, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Pipeline{}, fmt.Errorf("query: unknown pipeline %q", name)
}
