package serve_test

import (
	"reflect"
	"testing"

	"sgxbench/internal/serve"
)

// checkFoldCoversAllFields pins a golden-check fold's sensitivity: it
// gives every field of T a distinct value, then checks that bumping any
// single field changes the fold, so no counter can silently fall out of
// the scenario check. T must be a flat struct of uint64 counters (Fold
// mixes only uint64s); a field of any other kind fails the test.
func checkFoldCoversAllFields[T any](t *testing.T, fold func(T, uint64) uint64) {
	t.Helper()
	const seed = 0xcbf29ce484222325
	var base T
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("%s.%s is %v: Fold only mixes uint64 counters", v.Type().Name(), v.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(7 * uint64(i+1))
	}
	h0 := fold(base, seed)
	for i := 0; i < v.NumField(); i++ {
		mutated := base
		mv := reflect.ValueOf(&mutated).Elem().Field(i)
		mv.SetUint(mv.Uint() + 1)
		if fold(mutated, seed) == h0 {
			t.Errorf("%s.Fold insensitive to field %s", v.Type().Name(), v.Type().Field(i).Name)
		}
	}
}

// TestBreakdownFoldCoversAllFields: flipping any single Breakdown
// counter must change the fold value.
func TestBreakdownFoldCoversAllFields(t *testing.T) {
	checkFoldCoversAllFields(t, serve.Breakdown.Fold)
}
