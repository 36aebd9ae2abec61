package main

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},   // overlaps the first: union 10..50
		{Parent: 1, Start: 25, End: 35},   // nested in the union
		{Parent: 1, Start: 60, End: 70},   // disjoint
		{Parent: 1, Start: 90, End: 120},  // runs past the parent: clipped to 90..100
		{Parent: 1, Start: 130, End: 140}, // wholly outside
	}
	if got, want := selfTime(parent, children), int64(100-40-10-10); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	full := []span{{Start: -5, End: 50}, {Start: 40, End: 200}}
	if got := selfTime(parent, full); got != 0 {
		t.Errorf("selfTime fully covered = %d, want 0", got)
	}
}

func TestLayerTableAttributesSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client/viz", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "server/viz", Start: 100, End: 700},
		{ID: 3, Parent: 1, Name: "server/viz", Start: 600, End: 900}, // overlaps id 2
	}
	rows := layerTable(spans)
	got := make(map[string]layerRow)
	for _, r := range rows {
		got[r.Name] = r
	}
	if c := got["client/viz"]; c.Count != 1 || c.SelfMs != 200.0/1e6 {
		t.Errorf("client/viz row = %+v, want count 1 and self 200ns", c)
	}
	if s := got["server/viz"]; s.Count != 2 || s.SelfMs != 900.0/1e6 {
		t.Errorf("server/viz row = %+v, want count 2 and self 900ns", s)
	}
	if d := durations(spans, "client/viz", 1, true); len(d) != 1 || d[0] != 200 {
		t.Errorf("self durations = %v, want [200]", d)
	}
}
