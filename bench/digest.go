package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// digest hashes every exported field of v, recursing through pointers,
// structs and slices. Floats are hashed by their bits, so no rounding
// hides a change and NaN stays hashable. Field names are not hashed:
// a rename leaves the digest alone, a changed value does not.
func digest(v any) string {
	d := digester{h: sha256.New()}
	d.value(reflect.ValueOf(v))
	return hex.EncodeToString(d.h.Sum(nil)[:8])
}

type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			d.u64(0)
			return
		}
		d.u64(1)
		d.value(v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				d.value(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.String:
		d.u64(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			d.u64(1)
		} else {
			d.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	default:
		// Only a new field kind in the hashed types reaches here; fail
		// loudly rather than silently leave it out of the digest.
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}
