package runner

import (
	"fmt"
	"reflect"
	"testing"
)

// keyless is every Job leaf that Key leaves out on purpose, by path. A
// field belongs here only if it cannot change a Result.
var keyless = map[string]bool{
	"Options.CoreWorkers": true, // host parallelism; serial and parallel epochs are byte-identical
}

// TestKeyCoversEveryField is the memo's coverage property: every leaf of a
// Job — found by reflection, so a field added tomorrow is enumerated without
// anyone extending a list — moves Key when it alone changes, and the keyless
// leaves do not. Reading a field is not enough to pass: an encoder that
// writes it masked by another field, or drops its verb, fails here.
func TestKeyCoversEveryField(t *testing.T) {
	for _, base := range []struct {
		name string
		job  Job
	}{
		{"fixture", fixtureJob()}, // every option set
		{"suite", job(1)},         // options mostly zero, a profile shared with the suite table
	} {
		t.Run(base.name, func(t *testing.T) {
			// Perturb a deep copy: the suite's profiles are shared, read-only data.
			j := deepCopy(reflect.ValueOf(base.job)).Interface().(Job)
			if j.Key() != base.job.Key() {
				t.Fatal("deep copy has a different key")
			}
			met := map[string]bool{} // every leaf visited, by path
			eachLeaf(t, reflect.ValueOf(&j).Elem(), "", func(path string, leaf reflect.Value) {
				met[path] = true
				before := j.Key()
				old := reflect.ValueOf(leaf.Interface())
				perturb(t, path, leaf)
				moved := j.Key() != before
				leaf.Set(old)
				switch {
				case keyless[path] && moved:
					t.Errorf("%s is declared keyless but moves the key", path)
				case !keyless[path] && !moved:
					t.Errorf("%s does not move the key: encode it in key.go (re-pinning TestKeyPinned), or list it as keyless if it cannot change a Result", path)
				}
			})
			for path := range keyless {
				if !met[path] {
					t.Errorf("keyless names %s, which is not a leaf of Job", path)
				}
			}
			if j.Key() != base.job.Key() {
				t.Error("a perturbation was not undone")
			}
			t.Logf("%d leaves", len(met))
		})
	}
}

// eachLeaf visits every settable scalar reachable from v through structs,
// slices and pointers. A nil pointer is a leaf itself (nil versus set) and
// is then set for the visit of what lies behind it.
func eachLeaf(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			eachLeaf(t, v.Field(i), name, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			visit(path, v)
			v.Set(reflect.New(v.Type().Elem()))
			defer v.SetZero()
		}
		eachLeaf(t, v.Elem(), path, visit)
	default:
		if !v.CanSet() {
			t.Fatalf("%s is unexported: the test cannot perturb it and callers cannot set it", path)
		}
		visit(path, v)
	}
}

// perturb changes one leaf to a different value of its type.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.5)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "'")
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for kind %s; teach this test, and Job.Key, the new kind", path, v.Kind())
	}
}

// deepCopy clones v through pointers, slices and structs.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	}
	return v
}
