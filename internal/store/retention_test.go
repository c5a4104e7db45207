package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refCollection is Collection as it stood before retention kept a bound
// on its stamps: Expire visits every entry and hex-decodes every id. The
// differential test drives it beside the real one.
type refCollection struct {
	docs  map[ObjectID]doc
	order []ObjectID
	muts  []Mutation
}

func newRefCollection() *refCollection {
	return &refCollection{docs: make(map[ObjectID]doc)}
}

// refTime is ObjectID.Time as it stood then.
func refTime(id ObjectID) time.Time {
	raw, err := hex.DecodeString(string(id))
	if err != nil || len(raw) != 12 {
		return time.Time{}
	}
	return time.Unix(int64(binary.BigEndian.Uint32(raw[0:4])), 0).UTC()
}

// insert stores d under an id the real collection minted.
func (r *refCollection) insert(id ObjectID, d doc) {
	r.docs[id] = d
	r.order = append(r.order, id)
	r.muts = append(r.muts, Mutation{Op: "insert", ID: id})
}

func (r *refCollection) update(id ObjectID, fn func(*doc)) bool {
	d, ok := r.docs[id]
	if !ok {
		return false
	}
	fn(&d)
	r.docs[id] = d
	r.muts = append(r.muts, Mutation{Op: "update", ID: id})
	return true
}

func (r *refCollection) expire(cutoff time.Time) int {
	removed := 0
	keep := r.order[:0]
	for _, id := range r.order {
		if _, live := r.docs[id]; !live {
			continue
		}
		if refTime(id).Before(cutoff) {
			delete(r.docs, id)
			removed++
			r.muts = append(r.muts, Mutation{Op: "expire", ID: id})
			continue
		}
		keep = append(keep, id)
	}
	r.order = keep
	return removed
}

func (r *refCollection) export() []Doc[doc] {
	out := make([]Doc[doc], 0, len(r.docs))
	for _, id := range r.order {
		if d, ok := r.docs[id]; ok {
			out = append(out, Doc[doc]{ID: id, Value: d})
		}
	}
	return out
}

func (r *refCollection) restore(docs []Doc[doc]) {
	r.docs = make(map[ObjectID]doc, len(docs))
	r.order = r.order[:0]
	for _, d := range docs {
		r.docs[d.ID] = d.Value
		r.order = append(r.order, d.ID)
	}
}

// TestExpireMatchesReferenceWalk drives seeded random operation sequences
// against the collection and the reference, and after every step wants
// the same result, the same mutations in the same order, the same export
// and the same rise in exiot_store_ops_total{op="expire"}.
func TestExpireMatchesReferenceWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		// Odd seeds stamp as the pipeline does, an hour at a time and never
		// backwards; even seeds also stamp up to a day early or late.
		monotone := seed%2 == 1
		t.Run(fmt.Sprintf("seed=%d/monotone=%v", seed, monotone), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			real, ref := NewCollection[doc](), newRefCollection()
			var got []Mutation
			real.AddHook(func(m Mutation) { got = append(got, m) })

			var ids []ObjectID // every id ever minted, live or not
			pick := func() ObjectID {
				if len(ids) == 0 || rng.Intn(20) == 0 {
					return ObjectID("missing")
				}
				return ids[rng.Intn(len(ids))]
			}
			clock := base
			for step := 0; step < 2500; step++ {
				before := opExpire.Value()
				wantExpired := 0
				var op string
				switch k := rng.Intn(100); {
				case k < 45:
					op = "insert"
					switch rng.Intn(4) {
					case 0: // the next hour's records
						clock = clock.Add(time.Hour)
					case 1:
						clock = clock.Add(time.Duration(rng.Intn(3)) * time.Second)
					} // otherwise an equal stamp
					ts := clock
					if !monotone && rng.Intn(3) == 0 {
						ts = clock.Add(time.Duration(rng.Intn(48*3600)-24*3600) * time.Second)
					}
					d := doc{IP: fmt.Sprint(step), Active: true}
					id := real.Insert(ts, d)
					ref.insert(id, d)
					ids = append(ids, id)
				case k < 55:
					op = "update"
					id, flip := pick(), func(d *doc) { d.Active = !d.Active }
					if a, b := real.Update(id, flip), ref.update(id, flip); a != b {
						t.Fatalf("step %d: Update(%s) = %v, reference %v", step, id, a, b)
					}
				case k < 97:
					op = "expire"
					// Around a retention window behind the clock, or right on
					// some document's stamp; on a whole second one call in two.
					cutoff := clock.Add(-time.Duration(rng.Intn(30*3600)) * time.Second)
					if rng.Intn(2) == 0 {
						cutoff = refTime(pick())
					}
					if rng.Intn(2) == 0 {
						cutoff = cutoff.Add(time.Duration(1 + rng.Intn(999_999_999)))
					}
					a := real.Expire(cutoff)
					wantExpired = ref.expire(cutoff)
					if a != wantExpired {
						t.Fatalf("step %d: Expire(%v) removed %d, reference %d", step, cutoff, a, wantExpired)
					}
				default:
					op = "restore"
					// A snapshot read back, now and then with an id that does
					// not decode: it stamps as the zero time and lapses first.
					docs := real.Export()
					if rng.Intn(3) == 0 {
						bad := Doc[doc]{ID: ObjectID(fmt.Sprintf("undecodable-%d", step))}
						at := rng.Intn(len(docs) + 1)
						docs = append(docs[:at:at], append([]Doc[doc]{bad}, docs[at:]...)...)
						ids = append(ids, bad.ID)
					}
					real.Restore(docs)
					ref.restore(docs)
				}
				if d := opExpire.Value() - before; d != int64(wantExpired) {
					t.Fatalf("step %d (%s): expire counter rose by %d, want %d", step, op, d, wantExpired)
				}
				if !reflect.DeepEqual(got, ref.muts) {
					t.Fatalf("step %d (%s): mutations diverge:\n got %v\nwant %v", step, op, got, ref.muts)
				}
				got, ref.muts = got[:0], ref.muts[:0]
				if a, b := real.Export(), ref.export(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d (%s): exports diverge:\n got %v\nwant %v", step, op, a, b)
				}
				if len(real.order) > 2*real.Len() {
					t.Fatalf("step %d (%s): order holds %d entries for %d documents", step, op, len(real.order), real.Len())
				}
			}
			if len(ids) < 1000 {
				t.Fatalf("only %d inserts in 2500 steps", len(ids))
			}
		})
	}
}

// TestExpireReturnsWithoutWalking pins the O(1) path: a walk would have
// dropped the planted slot.
func TestExpireReturnsWithoutWalking(t *testing.T) {
	c := NewCollection[doc]()
	var ids []ObjectID
	for i := 0; i < 3; i++ {
		ids = append(ids, c.Insert(base.Add(time.Duration(i)*time.Hour), doc{}))
	}
	// A slot whose document is gone: only a walk of order drops it.
	delete(c.docs, ids[1])
	if n := c.Expire(base); n != 0 || len(c.order) != 3 {
		t.Fatalf("Expire at the oldest stamp removed %d and left %d entries, want 0 and 3 (no walk)", n, len(c.order))
	}
	// Due by a nanosecond: the oldest goes, and the walk tidies up.
	if n := c.Expire(base.Add(1)); n != 1 || len(c.order) != 1 {
		t.Fatalf("Expire past the oldest stamp removed %d and left %d entries, want 1 and 1", n, len(c.order))
	}
	if want := base.Add(2 * time.Hour).Unix(); c.minStamp != want {
		t.Fatalf("minStamp = %d after the walk, want %d", c.minStamp, want)
	}
}

func TestObjectIDTimeDoesNotAllocate(t *testing.T) {
	id, bad := NewObjectID(base), ObjectID("zz0000000000000000000000")
	if n := testing.AllocsPerRun(100, func() { _ = id.Time() }); n != 0 {
		t.Errorf("Time allocates %v times", n)
	}
	for _, id := range []ObjectID{bad, id[:23], id + "0", id + "00", ""} {
		if ts := id.Time(); !ts.IsZero() {
			t.Errorf("malformed id %q has time %v, want zero", id, ts)
		}
	}
}

// TestKVLenLooksOnlyWhenAKeyCanHaveLapsed pins both halves of Len: it is
// exact about TTLs, and it leaves the map alone until one can have run out.
func TestKVLenLooksOnlyWhenAKeyCanHaveLapsed(t *testing.T) {
	now := base
	kv := NewKVWithClock(func() time.Time { return now })
	for i := 0; i < 100; i++ {
		kv.Set(fmt.Sprint("forever", i), "x")
	}
	kv.SetTTL("1h", "x", time.Hour)
	kv.SetTTL("3h", "x", 3*time.Hour)
	// A lapsed entry SetTTL never saw: only a walk of the map can find it.
	kv.data["planted"] = kvEntry{expiresAt: base.Add(-time.Second)}

	now = base.Add(time.Hour) // the first expiry is not yet passed
	if n := kv.Len(); n != 103 {
		t.Fatalf("Len = %d before any expiry, want 103 (no walk)", n)
	}
	now = base.Add(2 * time.Hour)
	if n := kv.Len(); n != 101 {
		t.Fatalf("Len = %d after the first expiry, want 101", n)
	}
	if want := base.Add(3 * time.Hour); !kv.firstExpiry.Equal(want) {
		t.Fatalf("firstExpiry = %v after the walk, want %v", kv.firstExpiry, want)
	}
	kv.Set("3h", "x") // overwritten without a TTL: the bound is low, never wrong
	now = base.Add(4 * time.Hour)
	if n, keys := kv.Len(), kv.Keys(); n != 101 || len(keys) != 101 {
		t.Fatalf("Len = %d, %d keys, want 101 of each", n, len(keys))
	}
	if !kv.firstExpiry.IsZero() {
		t.Fatalf("firstExpiry = %v with no TTL'd key left", kv.firstExpiry)
	}

	kv.Restore([]KVItem{{Key: "a", Value: "x", ExpiresAt: base.Add(5 * time.Hour)}, {Key: "b", Value: "x"}})
	now = base.Add(6 * time.Hour)
	if n := kv.Len(); n != 1 {
		t.Fatalf("Len = %d after a restored key lapsed, want 1", n)
	}
}
