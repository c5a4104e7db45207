package store

import (
	"reflect"
	"testing"
	"time"
)

func TestCollectionExportRestore(t *testing.T) {
	src := NewCollection[string]()
	ts := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	var ids []ObjectID
	for i, v := range []string{"a", "b", "c"} {
		stamp := ts
		if i == 1 {
			stamp = ts.Add(-time.Hour) // the one Expire drops
		}
		ids = append(ids, src.Insert(stamp, v))
	}
	src.Expire(ts)

	exported := src.Export()
	if len(exported) != 2 {
		t.Fatalf("exported %d docs, want 2", len(exported))
	}

	dst := NewCollection[string]()
	dst.Restore(exported)
	if dst.Len() != 2 {
		t.Fatalf("restored %d docs, want 2", dst.Len())
	}
	got := dst.Export()
	if got[0].ID != ids[0] || got[1].ID != ids[2] {
		t.Fatalf("restored %v, want IDs [%s %s]", got, ids[0], ids[2])
	}
	if got[0].Value != "a" || got[1].Value != "c" {
		t.Fatalf("restored docs %v in wrong order", got)
	}
}

// TestWriteVersions checks the versions ExportChanged hands out: Insert,
// Update and Restore each give the written document the next one, a
// write to nothing moves none, and expiry drops the expired document's.
// The walk visits exactly Export's documents, and copies out exactly the
// ones its callback calls changed.
func TestWriteVersions(t *testing.T) {
	c := NewCollection[string]()
	ts := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	a := c.Insert(ts.Add(-time.Hour), "a")
	b := c.Insert(ts, "b")
	versions := func() []uint64 {
		t.Helper()
		var ids []ObjectID
		var vers []uint64
		changed := c.ExportChanged(func(id ObjectID, v uint64) bool {
			ids = append(ids, id)
			vers = append(vers, v)
			return len(ids)%2 == 1
		})
		var want []Doc[string]
		for i, d := range c.Export() {
			if i >= len(ids) || ids[i] != d.ID {
				t.Fatalf("ExportChanged visited %v, Export holds %v", ids, c.Export())
			}
			if i%2 == 0 {
				want = append(want, d)
			}
		}
		if len(ids) != len(c.Export()) || !reflect.DeepEqual(changed, want) {
			t.Fatalf("ExportChanged visited %d docs and copied %v, want %d and %v", len(ids), changed, len(c.Export()), want)
		}
		return vers
	}
	if got := versions(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("after two inserts: versions %v, want [1 2]", got)
	}
	c.Update(a, func(*string) {}) // a write, even if nothing changed
	c.Update("missing", func(*string) {})
	if got := versions(); !reflect.DeepEqual(got, []uint64{3, 2}) {
		t.Fatalf("after updating a: versions %v, want [3 2]", got)
	}
	c.Expire(ts)
	if got := versions(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("after expiring a: versions %v, want [2]", got)
	}
	c.Restore([]Doc[string]{{ID: b, Value: "b"}, {ID: a, Value: "a"}})
	if got := versions(); !reflect.DeepEqual(got, []uint64{4, 5}) {
		t.Fatalf("after a restore: versions %v, want fresh ones [4 5]", got)
	}
}

func TestMutationHooks(t *testing.T) {
	// Every observer added sees every mutation.
	var muts, second []Mutation
	c := NewCollection[int]()
	c.AddHook(func(m Mutation) { muts = append(muts, m) })
	c.AddHook(func(m Mutation) { second = append(second, m) })
	ts := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	id := c.Insert(ts, 1)
	c.Update(id, func(v *int) { *v = 2 })
	c.Expire(ts.Add(time.Second))
	c.Restore(nil) // must not fire
	want := []string{"insert", "update", "expire"}
	if len(muts) != len(want) {
		t.Fatalf("got %d collection mutations, want %d", len(muts), len(want))
	}
	for i, m := range muts {
		if m.Op != want[i] || m.ID != id {
			t.Fatalf("mutation %d = %+v, want op %s on %s", i, m, want[i], id)
		}
	}
	if !reflect.DeepEqual(second, muts) {
		t.Fatalf("second observer saw %+v, first %+v", second, muts)
	}
}

func TestBumpObjectIDCounter(t *testing.T) {
	base := ObjectIDCounterValue()
	BumpObjectIDCounter(base + 100)
	if got := ObjectIDCounterValue(); got != base+100 {
		t.Fatalf("counter = %d, want %d", got, base+100)
	}
	BumpObjectIDCounter(base + 50) // must never lower
	if got := ObjectIDCounterValue(); got != base+100 {
		t.Fatalf("counter lowered to %d, want %d", got, base+100)
	}
	id := NewObjectID(time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC))
	if len(id) != 24 {
		t.Fatalf("minted ID %q has wrong length", id)
	}
}
