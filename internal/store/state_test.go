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
	gotIDs, gotDocs := dst.FindIDs(nil)
	if gotIDs[0] != ids[0] || gotIDs[1] != ids[2] {
		t.Fatalf("restored IDs %v, want [%s %s]", gotIDs, ids[0], ids[2])
	}
	if gotDocs[0] != "a" || gotDocs[1] != "c" {
		t.Fatalf("restored docs %v in wrong order", gotDocs)
	}
}

func TestKVExportRestorePreservesTTL(t *testing.T) {
	now := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	src := NewKVWithClock(clock)
	src.Set("plain", "1")
	src.SetTTL("ttl", "2", time.Hour)
	src.SetTTL("expired", "3", time.Minute)
	now = now.Add(30 * time.Minute)

	exported := src.Export()
	if len(exported) != 2 {
		t.Fatalf("exported %d items, want 2 (expired key skipped)", len(exported))
	}

	dst := NewKVWithClock(clock)
	dst.Restore(exported)
	if v, ok := dst.Get("plain"); !ok || v != "1" {
		t.Fatalf("plain = (%q, %v), want (1, true)", v, ok)
	}
	if v, ok := dst.Get("ttl"); !ok || v != "2" {
		t.Fatalf("ttl = (%q, %v), want (2, true)", v, ok)
	}
	// The absolute expiry must carry over: 31 more minutes crosses it.
	now = now.Add(31 * time.Minute)
	if _, ok := dst.Get("ttl"); ok {
		t.Fatal("ttl key survived past its restored absolute expiry")
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
