package store

import (
	"sync"
	"testing"
	"time"
)

type doc struct {
	IP     string
	Active bool
}

var base = time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)

func TestObjectIDUniqueAndTimestamped(t *testing.T) {
	seen := map[ObjectID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewObjectID(base)
		if seen[id] {
			t.Fatalf("duplicate ObjectID %s", id)
		}
		seen[id] = true
		if !id.Time().Equal(base) {
			t.Fatalf("ObjectID time = %v, want %v", id.Time(), base)
		}
	}
	if ts := ObjectID("nothex").Time(); !ts.IsZero() {
		t.Errorf("malformed id time = %v, want zero", ts)
	}
}

func TestCollectionCRUD(t *testing.T) {
	c := NewCollection[doc]()
	id := c.Insert(base, doc{IP: "1.2.3.4", Active: true})
	got, ok := c.Get(id)
	if !ok || got.IP != "1.2.3.4" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if !c.Update(id, func(d *doc) { d.Active = false }) {
		t.Fatal("Update reported missing doc")
	}
	got, _ = c.Get(id)
	if got.Active {
		t.Error("update lost")
	}
	if c.Update(ObjectID("missing"), func(d *doc) {}) {
		t.Error("Update on missing id reported success")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	if n := c.Expire(base.Add(time.Second)); n != 1 {
		t.Errorf("Expire removed %d, want 1", n)
	}
	if _, ok := c.Get(id); ok {
		t.Error("expired doc still readable")
	}
}

func TestCollectionFindInsertionOrder(t *testing.T) {
	c := NewCollection[doc]()
	for i := 0; i < 10; i++ {
		c.Insert(base.Add(time.Duration(i)*time.Second), doc{IP: string(rune('a' + i)), Active: i%2 == 0})
	}
	all := c.Find(nil)
	if len(all) != 10 {
		t.Fatalf("Find(nil) = %d docs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].IP < all[i-1].IP {
			t.Fatal("insertion order not preserved")
		}
	}
	active := c.Find(func(d doc) bool { return d.Active })
	if len(active) != 5 {
		t.Errorf("filtered Find = %d docs, want 5", len(active))
	}
	exported := c.Export()
	if len(exported) != len(all) {
		t.Fatalf("Export = %d docs, Find(nil) %d", len(exported), len(all))
	}
	for i, d := range exported {
		if d.Value != all[i] {
			t.Errorf("Export[%d] = %v, Find(nil)[%d] = %v", i, d.Value, i, all[i])
		}
	}
}

func TestCollectionExpire(t *testing.T) {
	c := NewCollection[doc]()
	for day := 0; day < 20; day++ {
		c.Insert(base.Add(time.Duration(day)*24*time.Hour), doc{IP: "x"})
	}
	// Two-week lapse: drop everything older than day 6.
	removed := c.Expire(base.Add(6 * 24 * time.Hour))
	if removed != 6 {
		t.Errorf("Expire removed %d, want 6", removed)
	}
	if c.Len() != 14 {
		t.Errorf("Len after expire = %d, want 14", c.Len())
	}
	// Expire is idempotent at the same cutoff.
	if n := c.Expire(base.Add(6 * 24 * time.Hour)); n != 0 {
		t.Errorf("second Expire removed %d", n)
	}
}

func TestCollectionConcurrency(t *testing.T) {
	c := NewCollection[int]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := c.Insert(base, w*1000+i)
				c.Update(id, func(v *int) { *v++ })
				c.Get(id)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", c.Len())
	}
}
