// Package foldtest is the test support behind the repo's counter-fold tests:
// wherever a counter struct is summed, merged or converted field by field, a
// test fills every field by reflection with a distinct value and checks that
// all of it arrives, so a field added to the struct and forgotten in the fold
// fails a test by name instead of reading zero in production.
package foldtest

import (
	"fmt"
	"reflect"
)

// leaves calls fn on every leaf of v: struct fields and array elements,
// recursively.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), fn)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fn)
		}
	default:
		fn(v)
	}
}

// Fill sets every leaf of the struct ptr points to: integers to distinct
// positive values (1, 2, … in declaration order), bools to true. It panics
// on any other kind, so a counter struct that grows one gets its fold test
// looked at.
func Fill(ptr any) {
	var n int64
	leaves(reflect.ValueOf(ptr).Elem(), func(v reflect.Value) {
		n++
		switch {
		case v.CanInt():
			v.SetInt(n)
		case v.CanUint():
			v.SetUint(uint64(n))
		case v.Kind() == reflect.Bool:
			v.SetBool(true)
		default:
			panic(fmt.Sprintf("foldtest: cannot fill a %s", v.Kind()))
		}
	})
}

// Sum adds up every leaf of the struct v, a true bool counting 1: what a
// fold into another struct type must conserve.
func Sum(v any) (total int64) {
	leaves(reflect.ValueOf(v), func(v reflect.Value) {
		switch {
		case v.CanInt():
			total += v.Int()
		case v.CanUint():
			total += int64(v.Uint())
		case v.Kind() == reflect.Bool:
			if v.Bool() {
				total++
			}
		default:
			panic(fmt.Sprintf("foldtest: cannot sum a %s", v.Kind()))
		}
	})
	return total
}

// ZeroFields names the top-level fields of the struct v that are zero: what
// a function that builds v from some other state left unset.
func ZeroFields(v any) []string {
	rv := reflect.ValueOf(v)
	var zero []string
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			zero = append(zero, rv.Type().Field(i).Name)
		}
	}
	return zero
}
