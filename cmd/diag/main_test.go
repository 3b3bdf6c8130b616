package main

import (
	"strings"
	"testing"
)

// TestPickMode pins the mode dispatch: each mode flag alone selects its
// mode, no flags select the join mode, and every conflicting
// combination is an error naming the clashing flags — the regression
// test for the silent precedence order that used to run -serve and
// drop -epc when both were given.
func TestPickMode(t *testing.T) {
	cases := []struct {
		label    string
		serve    bool
		fault    bool
		epc      bool
		query    string
		want     runMode
		errFlags []string
	}{
		{label: "default-join", want: modeJoin},
		{label: "serve", serve: true, want: modeServe},
		{label: "fault", fault: true, want: modeFault},
		{label: "epc", epc: true, want: modeEPC},
		{label: "query", query: "q1.filter-agg", want: modeQuery},
		{label: "suite-query", query: "s09.j1.sel250.u.agg", want: modeQuery},
		{label: "serve+fault", serve: true, fault: true, errFlags: []string{"-serve", "-fault"}},
		{label: "serve+epc", serve: true, epc: true, errFlags: []string{"-serve", "-epc"}},
		{label: "fault+query", fault: true, query: "q1.filter-agg", errFlags: []string{"-fault", "-query"}},
		{label: "epc+query", epc: true, query: "q1.filter-agg", errFlags: []string{"-epc", "-query"}},
		{label: "all-four", serve: true, fault: true, epc: true, query: "x",
			errFlags: []string{"-serve", "-fault", "-epc", "-query"}},
	}
	for _, c := range cases {
		got, err := pickMode(c.serve, c.fault, c.epc, c.query)
		if len(c.errFlags) > 0 {
			if err == nil {
				t.Errorf("%s: no error, got mode %d", c.label, got)
				continue
			}
			for _, f := range c.errFlags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("%s: error %q does not name %s", c.label, err, f)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.label, err)
		} else if got != c.want {
			t.Errorf("%s: mode %d, want %d", c.label, got, c.want)
		}
	}
}

// TestParseSetting pins the setting-name table and its rejection of
// unknown names (main exits 2 on the false return).
func TestParseSetting(t *testing.T) {
	for name, want := range map[string]bool{
		"plain": true, "plainm": true, "doe": true, "die": true,
		"": false, "sgx": false, "DiE": false,
	} {
		if _, ok := parseSetting(name); ok != want {
			t.Errorf("parseSetting(%q) ok=%v, want %v", name, ok, want)
		}
	}
}

// TestCheckScale pins the -scale gate: non-powers of two are rejected in
// every mode, and a scale that would leave a generated relation with no
// rows is rejected up front (main exits 2) instead of panicking in
// rel.Alloc. The join and -epc modes scale a 100 MB build side (at most
// 2^23), -query a 400 MB fact table (at most 2^25); the serving modes
// generate no scaled relation.
func TestCheckScale(t *testing.T) {
	cases := []struct {
		mode  runMode
		scale int64
		ok    bool
	}{
		{modeJoin, 0, false},
		{modeJoin, -4, false},
		{modeJoin, 3, false},
		{modeServe, 96, false},
		{modeJoin, 1, true},
		{modeJoin, 512, true},
		{modeJoin, 1 << 23, true},
		{modeJoin, 1 << 24, false},
		{modeEPC, 1 << 23, true},
		{modeEPC, 1 << 24, false},
		{modeQuery, 1 << 25, true},
		{modeQuery, 1 << 26, false},
		{modeServe, 1 << 40, true},
		{modeFault, 1 << 62, true},
	}
	for _, c := range cases {
		err := checkScale(c.mode, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("checkScale(mode %d, %d) = %v, want ok=%v", c.mode, c.scale, err, c.ok)
		}
	}
}
