package espresso

import (
	"math/rand"
	"testing"
)

// TestPMapRepeatedGCUnderDeletes runs a PMap through dozens of
// collections of a delete-heavy mix and checks every answer against an
// oracle. Deletes leave unlinked index nodes scattered between live
// ones, so successive cycles keep handing the summary region tails too
// small for the next object. Placing an object in such a sliver once
// straddled it over the next region's live objects: with this seed a
// lookup went wrong after the 33rd collection (or marking hit a dangling
// klass word), whatever the heap size. Both collection modes run the
// same summary.
func TestPMapRepeatedGCUnderDeletes(t *testing.T) {
	for _, mode := range []struct {
		name       string
		concurrent bool
	}{{"stw", false}, {"concurrent", true}} {
		t.Run(mode.name, func(t *testing.T) {
			rt, err := Open(Options{ConcurrentGC: mode.concurrent, GCWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.CreateHeap("kv", 32<<20); err != nil {
				t.Fatal(err)
			}
			m, err := rt.OpenPMap("kv", "idx", PMapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const keys, ops, gcEvery = 25000, 400000, 10000
			present := make(map[int64]bool, 2*keys)
			for k := int64(0); k < keys; k++ {
				if err := m.Put(k, 0); err != nil {
					t.Fatal(err)
				}
				present[k] = true
			}
			r := rand.New(rand.NewSource(1))
			for op := 1; op <= ops; op++ {
				k := r.Int63n(2 * keys)
				switch p := r.Intn(100); {
				case p < 50:
					if _, ok := m.Get(k); ok != present[k] {
						t.Fatalf("op %d: Get(%d) found %v, want %v", op, k, ok, present[k])
					}
				case p < 80:
					if err := m.Put(k, 0); err != nil {
						t.Fatalf("op %d: Put(%d): %v", op, k, err)
					}
					present[k] = true
				default:
					if ok := m.Delete(k); ok != present[k] {
						t.Fatalf("op %d: Delete(%d) found %v, want %v", op, k, ok, present[k])
					}
					delete(present, k)
				}
				if op%gcEvery == 0 {
					if _, err := rt.PersistentGC("kv"); err != nil {
						t.Fatalf("op %d: collection %d: %v", op, op/gcEvery, err)
					}
				}
			}
			n := 0
			m.Scan(func(key int64, _ Ref) bool {
				if !present[key] {
					t.Fatalf("scan found deleted key %d", key)
				}
				n++
				return true
			})
			if n != len(present) {
				t.Fatalf("scan found %d keys, want %d", n, len(present))
			}
		})
	}
}
