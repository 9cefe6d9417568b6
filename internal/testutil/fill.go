package testutil

import (
	"fmt"
	"reflect"
)

// FillDistinct sets every field of the struct p points to, recursing into
// nested structs, to a distinct non-zero value: integers count up from 1,
// floats are the count plus one half, strings are "v<count>". A round-trip
// test that fills a record this way and compares deeply catches any field
// a copy or codec drops, including fields added after the test was
// written. A field kind it cannot fill panics, so a new slice or map field
// fails the test loudly instead of escaping it.
func FillDistinct(p any) {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(int64(n))
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(uint64(n))
			case reflect.Float32, reflect.Float64:
				f.SetFloat(float64(n) + 0.5)
			case reflect.String:
				f.SetString(fmt.Sprintf("v%d", n))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Struct:
				fill(f)
			default:
				panic(fmt.Sprintf("testutil: FillDistinct cannot fill %s field %s.%s",
					f.Kind(), v.Type(), v.Type().Field(i).Name))
			}
		}
	}
	fill(reflect.ValueOf(p).Elem())
}
