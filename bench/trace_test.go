package main

import (
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children a [10,40] and b [30,60], which overlap and
	// so cover 50 together, c [70,80], and under a a grandchild d [15,25].
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 70, End: 80},
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 25},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"root": 40, "a": 20, "b": 30, "c": 10, "d": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	// Children are counted once, so self times add up to the root's span
	// exactly when no two siblings overlap; here a and b share [30,40].
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 110 {
		t.Errorf("self times sum to %d, want 110 (root 100 + the 10 a and b share)", sum)
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	orphan := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 7, Name: "lost", Start: 1, End: 2},
	}
	if _, err := selfTimes(orphan); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Errorf("orphan span: got error %v", err)
	}
	open := []span{{ID: 0, Parent: -1, Name: "root", Start: 5, End: -1}}
	if _, err := selfTimes(open); err == nil {
		t.Error("a span that was never closed was accepted")
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1, 0, 0)
	off.end(id) // must not panic
	on := newRecorder()
	root := on.begin("round", -1, 1, 2)
	child := on.begin("sample", root, 1, 2)
	on.end(child)
	on.end(root)
	if len(on.spans) != 2 || on.spans[1].Parent != root || on.spans[1].Round != 2 {
		t.Fatalf("recorded %+v", on.spans)
	}
	if _, err := selfTimes(on.spans); err != nil {
		t.Fatal(err)
	}
}
