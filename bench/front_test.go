package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func testLine(i int, active bool) string {
	return fmt.Sprintf(`{"ip":"10.0.0.%d","first_seen":"2020-12-09T00:00:%02dZ","detected_at":"2020-12-09T00:01:%02dZ","active":%t}`, i, i, i, active)
}

func testPage(lines ...string) []byte {
	return []byte(fmt.Sprintf(`{"count":%d,"has_more":false,"next_cursor":9,"records":[%s]}`+"\n", len(lines), strings.Join(lines, ",")))
}

func TestMirrorFollowsUpdatesAndRejectsTampering(t *testing.T) {
	everyone := func(string) bool { return true }
	// Hour 1 serves records 1 and 2; hour 2 serves record 3 and record 1
	// again, ended. The export holds 1 (ended), 2, 3 in insertion order.
	pages := [][]byte{
		testPage(testLine(1, true), testLine(2, true)),
		testPage(testLine(3, true), testLine(1, false)),
	}
	export := []byte(testLine(1, false) + "\n" + testLine(2, true) + "\n" + testLine(3, true) + "\n")
	if wrong := checkFeed(pages, export, everyone); len(wrong) != 0 {
		t.Fatalf("intact pages rejected: %v", wrong)
	}

	tampered := [][]byte{pages[0], bytes.Replace(pages[1], []byte(`10.0.0.3`), []byte(`10.0.0.4`), 1)}
	if wrong := checkFeed(tampered, export, everyone); len(wrong) == 0 {
		t.Error("a page with a changed record was accepted")
	}
	if wrong := checkFeed(pages[:1], export, everyone); len(wrong) == 0 {
		t.Error("a missing page was accepted")
	}
	if wrong := checkFeed([][]byte{pages[1], pages[0]}, export, everyone); len(wrong) == 0 {
		t.Error("pages out of order were accepted: the stale copy of record 1 wins")
	}
	miscounted := [][]byte{pages[0], bytes.Replace(pages[1], []byte(`"count":2`), []byte(`"count":3`), 1)}
	if wrong := checkFeed(miscounted, export, everyone); len(wrong) == 0 {
		t.Error("a page whose count disagrees with its records was accepted")
	}
	if wrong := checkFeed(nil, nil, everyone); len(wrong) == 0 {
		t.Error("an empty feed was accepted")
	}
	notThree := func(ip string) bool { return ip != "10.0.0.3" }
	if wrong := checkFeed(pages, export, notThree); len(wrong) == 0 {
		t.Error("a fed IP that is no ground-truth scanner was accepted")
	}
}

func TestPageHeader(t *testing.T) {
	count, more, next, err := pageHeader([]byte(`{"count":500,"has_more":true,"next_cursor":2140,"records":[{"ip":"1.2.3.4"}]}`))
	if err != nil || count != 500 || !more || next != 2140 {
		t.Errorf("pageHeader = %d, %v, %d, %v", count, more, next, err)
	}
	if _, _, _, err := pageHeader([]byte(`{"count":3,"records":null}`)); err == nil {
		t.Error("a response without pagination fields parsed as a cursor page")
	}
}
