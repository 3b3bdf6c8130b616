package main

import (
	"testing"
	"time"

	"sgxbench/internal/obs"
)

func span(name string, id, parent, op, t, dur uint64) obs.Span {
	return obs.Span{Name: name, Ph: obs.PhComplete, T: t, Dur: dur,
		Args: []obs.Attr{{Key: "span", Val: id}, {Key: "parent", Val: parent}, {Key: "op", Val: op}}}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	sps := []obs.Span{
		span("root", 1, 0, 1, 0, 100),
		span("a", 2, 1, 1, 10, 20),  // [10,30)
		span("b", 3, 1, 1, 20, 30),  // [20,50), overlaps a
		span("c", 4, 1, 1, 90, 30),  // [90,120), reaches past root
		span("d", 5, 3, 1, 25, 5),   // inside b
		span("e", 6, 0, 0, 200, 40), // another root, no children
	}
	want := map[uint64]uint64{
		1: 100 - (40 + 10), // [10,50) and [90,100) covered
		2: 20,
		3: 30 - 5,
		4: 30,
		5: 5,
		6: 40,
	}
	got := selfTimes(sps)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	ops, setup := summarize(sps, false), summarize(sps, true)
	if r := ops["root"]; r.Count != 1 || r.Total != 100 || r.Self != 50 {
		t.Errorf("root summary %+v", r)
	}
	if _, ok := ops["e"]; ok || setup["e"].Total != 40 || len(setup) != 1 {
		t.Errorf("set-up span e misfiled: ops %v, setup %v", ops, setup)
	}
}

func TestSpansRecordNesting(t *testing.T) {
	var none *spans
	none.begin("x") // a nil recorder records nothing and must not panic
	none.end()

	sp := newSpans(16)
	sp.begin("setup")
	sp.begin("inner")
	sp.end()
	sp.end()
	sp.op = 7
	sp.begin("op")
	time.Sleep(time.Millisecond)
	sp.end()
	got := sp.tr.Spans()
	if len(got) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(got))
	}
	inner, setup, op := got[0], got[1], got[2]
	if spanArg(inner, "parent") != spanArg(setup, "span") || spanArg(setup, "parent") != 0 {
		t.Errorf("inner's parent %d, setup's id %d", spanArg(inner, "parent"), spanArg(setup, "span"))
	}
	if spanArg(setup, "op") != 0 || spanArg(op, "op") != 7 || op.Dur < uint64(time.Millisecond) {
		t.Errorf("op span %+v", op)
	}
	if inner.T < setup.T || inner.T+inner.Dur > setup.T+setup.Dur {
		t.Errorf("inner [%d,+%d) outside setup [%d,+%d)", inner.T, inner.Dur, setup.T, setup.Dur)
	}
}
