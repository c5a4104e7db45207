package trw

import (
	"math/rand"
	"testing"

	"exiot/internal/packet"
)

func TestFloorDiv(t *testing.T) {
	cases := []struct{ n, d, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 1}, {19, 10, 1},
		{-1, 10, -1}, {-10, 10, -1}, {-11, 10, -2},
		{int64(1e18), int64(1e9), int64(1e9)},
	}
	for _, c := range cases {
		if got := floorDiv(c.n, c.d); got != c.want {
			t.Errorf("floorDiv(%d, %d) = %d, want %d", c.n, c.d, got, c.want)
		}
	}
}

func TestFlowTableInsertGet(t *testing.T) {
	tbl := newFlowTable(int64(1e9))
	a := packet.MustParseIP("10.0.0.1")
	b := packet.MustParseIP("10.0.0.2")

	idxA, isNew := tbl.getOrInsert(a, 100)
	if !isNew {
		t.Fatal("first insert of a should be new")
	}
	if e := &tbl.entries[idxA]; e.ip != a || e.first != 100 || e.last != 100 || e.count != 1 {
		t.Fatalf("fresh entry not initialized: %+v", e)
	}
	idxB, isNew := tbl.getOrInsert(b, 200)
	if !isNew || idxB == idxA {
		t.Fatalf("insert of b: new=%v idx=%d (a=%d)", isNew, idxB, idxA)
	}
	if idx, isNew := tbl.getOrInsert(a, 300); isNew || idx != idxA {
		t.Fatalf("re-get of a: new=%v idx=%d, want existing %d", isNew, idx, idxA)
	}
	if tbl.len() != 2 {
		t.Fatalf("len = %d, want 2", tbl.len())
	}
}

// TestFlowTableGrowStableIndices fills the table well past its initial
// slot count and checks that every previously returned arena index still
// resolves to its IP — growth rehomes slots but never moves entries.
func TestFlowTableGrowStableIndices(t *testing.T) {
	tbl := newFlowTable(int64(1e9))
	rng := rand.New(rand.NewSource(7))
	idxOf := make(map[packet.IP]int32, 20000)
	for len(idxOf) < 20000 {
		ip := packet.IP(rng.Uint32())
		if _, ok := idxOf[ip]; ok {
			continue
		}
		idx, isNew := tbl.getOrInsert(ip, int64(len(idxOf)))
		if !isNew {
			t.Fatalf("ip %v reported existing on first insert", ip)
		}
		idxOf[ip] = idx
	}
	if len(tbl.slots) <= flowTableInitialSlots {
		t.Fatalf("table never grew: %d slots", len(tbl.slots))
	}
	for ip, want := range idxOf {
		idx, isNew := tbl.getOrInsert(ip, 0)
		if isNew || idx != want {
			t.Fatalf("ip %v: idx=%d new=%v, want stable idx %d", ip, idx, isNew, want)
		}
		if tbl.entries[idx].ip != ip {
			t.Fatalf("arena entry %d holds %v, want %v", idx, tbl.entries[idx].ip, ip)
		}
	}
}

// TestFlowTableDeleteRandom interleaves random inserts with sweeps at
// random cutoffs against a reference map, exercising backward-shift
// compaction on colliding probe chains across many epochs. Every sweep
// must end exactly the reference entries idle at the cutoff, and every
// survivor must still resolve to its original arena index.
func TestFlowTableDeleteRandom(t *testing.T) {
	tbl := newFlowTable(100) // short epochs: sweeps span many buckets
	rng := rand.New(rand.NewSource(11))
	ref := make(map[packet.IP]int32)
	lastTouch := make(map[packet.IP]int64)

	for step := 0; step < 30000; step++ {
		if rng.Intn(40) != 0 {
			ip := packet.IP(rng.Uint32() % 8192) // small space forces collisions
			idx, isNew := tbl.getOrInsert(ip, int64(step))
			if want, ok := ref[ip]; ok {
				if isNew || idx != want {
					t.Fatalf("step %d: ip %v idx=%d new=%v, want existing %d", step, ip, idx, isNew, want)
				}
				// Touch like the detector does, leaving gen stale.
				tbl.entries[idx].last = int64(step)
				lastTouch[ip] = int64(step)
			} else {
				if !isNew {
					t.Fatalf("step %d: ip %v reported existing but not in reference", step, ip)
				}
				ref[ip] = idx
				lastTouch[ip] = int64(step)
			}
			continue
		}
		// End every flow idle since a random past step, exactly as the
		// detector's hourly sweep does.
		cutoff := int64(step - rng.Intn(step+1))
		ended := tbl.sweep(cutoff, nil)
		for _, idx := range ended {
			ip := tbl.entries[idx].ip
			if want, ok := ref[ip]; !ok || want != idx {
				t.Fatalf("step %d: sweep ended unknown/stale entry %d (ip %v)", step, idx, ip)
			}
			if lt := lastTouch[ip]; lt > cutoff {
				t.Fatalf("step %d: sweep ended %v touched at %d > cutoff %d", step, ip, lt, cutoff)
			}
			delete(ref, ip)
			delete(lastTouch, ip)
			tbl.release(idx)
		}
		for ip, lt := range lastTouch {
			if lt <= cutoff {
				t.Fatalf("step %d: %v idle since %d survived sweep(%d)", step, ip, lt, cutoff)
			}
		}
	}
	if tbl.len() != len(ref) {
		t.Fatalf("len = %d, want %d", tbl.len(), len(ref))
	}
	for ip, want := range ref {
		if idx, isNew := tbl.getOrInsert(ip, 0); isNew || idx != want {
			t.Fatalf("survivor %v: idx=%d new=%v, want %d", ip, idx, isNew, want)
		}
	}
}

// TestFlowTableFreeListReuse releases entries and checks subsequent
// inserts recycle their arena slots instead of growing the slab.
func TestFlowTableFreeListReuse(t *testing.T) {
	tbl := newFlowTable(int64(1e9))
	for i := 0; i < 100; i++ {
		tbl.getOrInsert(packet.IP(i+1), int64(i))
	}
	capBefore := tbl.arenaCap()
	ended := tbl.sweep(1000, nil) // everything idle: all 100 end
	if len(ended) != 100 {
		t.Fatalf("sweep ended %d, want 100", len(ended))
	}
	for _, idx := range ended {
		tbl.release(idx)
	}
	if tbl.freeCount() != 100 || tbl.len() != 0 {
		t.Fatalf("after release: free=%d live=%d", tbl.freeCount(), tbl.len())
	}
	for i := 0; i < 100; i++ {
		tbl.getOrInsert(packet.IP(i+1000), int64(i))
	}
	if tbl.arenaCap() != capBefore {
		t.Fatalf("arena grew %d -> %d despite %d free entries", capBefore, tbl.arenaCap(), 100)
	}
	if tbl.freeCount() != 0 {
		t.Fatalf("free list not drained: %d", tbl.freeCount())
	}
}

// TestFlowTableSweepBoundary pins the expiry comparison: last <= cutoff
// ends the flow (the detector's `now - last >= flowEndGap` inclusive
// semantics), one nano later survives — even when both entries share the
// cutoff's epoch bucket.
func TestFlowTableSweepBoundary(t *testing.T) {
	epoch := int64(1000)
	tbl := newFlowTable(epoch)
	atCut := packet.MustParseIP("192.0.2.1")
	after := packet.MustParseIP("192.0.2.2")
	cutoff := int64(5500) // mid-epoch: bucket 5 is due, survivors refile
	tbl.getOrInsert(atCut, cutoff)
	tbl.getOrInsert(after, cutoff+1)

	ended := tbl.sweep(cutoff, nil)
	if len(ended) != 1 || tbl.entries[ended[0]].ip != atCut {
		t.Fatalf("sweep(cutoff) ended %v, want exactly [%v]", ended, atCut)
	}
	tbl.release(ended[0])
	if tbl.len() != 1 {
		t.Fatalf("len = %d, want 1 survivor", tbl.len())
	}
	// The survivor was re-filed; a later sweep past its last must end it.
	ended = tbl.sweep(cutoff+1, nil)
	if len(ended) != 1 || tbl.entries[ended[0]].ip != after {
		t.Fatalf("second sweep ended %v, want [%v]", ended, after)
	}
}

// TestFlowTableSweepRefilesTouched files an entry, touches it much later
// (the lazy path: gen goes stale, no re-file on touch), then sweeps past
// the original epoch. The entry must survive, re-filed under its current
// epoch, and expire only when a sweep passes its true last-touch time.
func TestFlowTableSweepRefilesTouched(t *testing.T) {
	epoch := int64(1000)
	tbl := newFlowTable(epoch)
	ip := packet.MustParseIP("198.51.100.9")
	idx, _ := tbl.getOrInsert(ip, 500) // filed under epoch 0
	tbl.entries[idx].last = 10_500     // touched in epoch 10; gen still 0

	if ended := tbl.sweep(9_999, nil); len(ended) != 0 {
		t.Fatalf("sweep ended a touched entry: %v", ended)
	}
	if g := tbl.entries[idx].gen; g != 10 {
		t.Fatalf("survivor re-filed under epoch %d, want 10", g)
	}
	ended := tbl.sweep(10_500, nil)
	if len(ended) != 1 || ended[0] != idx {
		t.Fatalf("sweep past last-touch ended %v, want [%d]", ended, idx)
	}
}
