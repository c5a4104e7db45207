package main

import "testing"

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// two children that overlap: together they cover [10, 50)
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// a child that outlives its parent is clipped to it: [90, 100)
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// a grandchild takes from its parent only
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 40, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
}

// Serial spans partition their root: the self times add up to it.
func TestSelfTimesAddUpToRoot(t *testing.T) {
	rec := newRecorder(16)
	root := rec.begin("run")
	for i := 0; i < 3; i++ {
		hour := rec.begin("hour")
		leaf := rec.begin("sampler")
		rec.end(leaf)
		rec.end(hour)
	}
	rec.end(root)
	spans := rec.snapshot()
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	if want := spans[0].End - spans[0].Start; total != want {
		t.Errorf("self times add up to %d, the root span lasted %d", total, want)
	}
	by := sumByName(spans)
	if by["hour"].Count != 3 || by["sampler"].Count != 3 || by["run"].Total != spans[0].End-spans[0].Start {
		t.Errorf("sumByName = %+v", by)
	}
	for _, s := range spans[1:] {
		if s.Parent == 0 {
			t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin("x")
	rec.end(id)
	rec.rename(id, "y")
	rec.close(rec.open("z", 1, 0))
	if spans := rec.snapshot(); spans != nil {
		t.Errorf("nil recorder returned %d spans", len(spans))
	}
}
