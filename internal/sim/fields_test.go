package sim

import (
	"reflect"
	"testing"
)

// fieldClass says how one field of the engine's state fares across a
// Snapshot/Restore round trip.
type fieldClass int

const (
	// captured: the field is, or sits inside, a group struct or slab
	// that Snapshot copies whole.
	captured fieldClass = iota + 1
	// static: fixed for the run — configuration, bindings, pooled
	// storage — or scratch and observer state the engine never reads
	// back to make a decision.
	static
	// derived: rebuilt from captured state on Restore.
	derived
)

// stateFields classifies every field of the structs that hold the
// engine's state. A struct-typed or slice-of-struct field whose type is
// itself listed here is classified field by field under that type.
var stateFields = map[reflect.Type]map[string]fieldClass{
	reflect.TypeOf(View{}): {
		"cfg":          static,
		"nets":         static,
		"total":        static,
		"active":       captured,
		"cbNets":       derived, // from the restored frontiers
		"machineState": captured,
		"cbTotal":      static,
		"mbTotal":      static,
		"log":          static,
		"om":           static,
	},
	reflect.TypeOf(netState{}): {
		"cn":          static,
		"hot":         static,
		"rows":        captured, // the arena's row slab
		"mbFront":     captured, // the fronts slab plus netSnap's lengths
		"cbFront":     captured,
		"netProgress": captured,
	},
	reflect.TypeOf(Engine{}): {
		"v":            static,
		"view":         captured, // see View
		"sch":          static,
		"opts":         static,
		"arena":        captured,
		"states":       captured, // see netState
		"netPtrs":      static,
		"hostQ":        captured,
		"arrivalOrder": captured,
		"linkState":    captured,
		"chainSucc":    static,
		"chainBuf":     static,
		"chk":          static,
		"chkState":     captured, // see checker
		"mbScratch":    static,
		"cbScratch":    static,
		"runID":        static,
		"tables":       static,
		"checked":      static,
		"res":          captured, // scalars whole, NetArrive/NetFinish copied
		"obsState":     static,
		"logState":     static,
	},
	reflect.TypeOf(checker{}): {
		"v":          static,
		"fill":       static,
		"checkClock": captured,
		"buf":        captured, // SaveState/RestoreState
		"nets":       captured, // see netShadow
		"holding":    derived,  // rebuildHolding
		"layerSlab":  captured,
		"hostInDone": captured,
		"mbGot":      static,
		"mbWant":     static,
		"cbGot":      static,
		"cbWant":     static,
		"chainPtrs":  static,
	},
	reflect.TypeOf(netShadow{}): {
		"layers":      captured, // the checker's layer slab
		"outstanding": derived,  // rebuildHolding
	},
}

// wholeCopied are the types Snapshot copies by plain assignment, one
// value at a time or as slab elements: they must hold no reference, or
// the copy would share state with the engine.
var wholeCopied = []reflect.Type{
	reflect.TypeOf(machineState{}), reflect.TypeOf(netProgress{}),
	reflect.TypeOf(linkState{}), reflect.TypeOf(checkClock{}),
	reflect.TypeOf(layerState{}), reflect.TypeOf(layerShadow{}),
	reflect.TypeOf(hostXfer{}),
}

// resultCopied are the reference fields of Result that Snapshot and
// Restore handle by hand; Snapshot assigns every other field whole.
var resultCopied = map[string]bool{"NetNames": true, "NetArrive": true, "NetFinish": true}

// TestEngineFieldsClassified fails when a field of View, netState,
// Engine or checker is not classified as captured, static or derived,
// so a field added without deciding how Snapshot treats it is a test
// failure rather than a silent replay bug. It also fails on a stale
// classification, on a whole-copied group that holds a reference, and
// on a reference in Result that Snapshot does not copy by hand.
func TestEngineFieldsClassified(t *testing.T) {
	for typ, classes := range stateFields {
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			seen[f.Name] = true
			if classes[f.Name] == 0 {
				t.Errorf("%s.%s is not classified: say whether Snapshot captures it, it is static for the run, or Restore derives it",
					typ.Name(), f.Name)
			}
		}
		for name := range classes {
			if !seen[name] {
				t.Errorf("%s has no field %s; drop its classification", typ.Name(), name)
			}
		}
	}
	for _, typ := range wholeCopied {
		if path, ok := reference(typ); ok {
			t.Errorf("%s is copied whole but holds a reference at %s", typ.Name(), path)
		}
	}
	res := reflect.TypeOf(Result{})
	for i := 0; i < res.NumField(); i++ {
		f := res.Field(i)
		if path, ok := reference(f.Type); ok && !resultCopied[f.Name] {
			t.Errorf("Result.%s holds a reference at %s that Snapshot would share with the engine; copy it by hand in Snapshot and Restore and list it in resultCopied",
				f.Name, path)
		}
	}
	for name := range resultCopied {
		if _, ok := res.FieldByName(name); !ok {
			t.Errorf("Result has no field %s; drop it from resultCopied", name)
		}
	}
}

// reference returns the path to the first pointer, slice, map, channel,
// function or interface inside typ.
func reference(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return typ.String(), true
	case reflect.Array:
		return reference(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if path, ok := reference(typ.Field(i).Type); ok {
				return typ.Field(i).Name + "." + path, true
			}
		}
	}
	return "", false
}
