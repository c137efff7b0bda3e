package gateabi

import (
	"testing"
)

func compatSchema() *Schema {
	b := NewSchema("app")
	ConnID(b)
	FD(b)
	U64(b, "count")
	String(b, "user", 32)
	Bytes(b, "payload", 64)
	return b.Seal()
}

// TestHashStability: the hash is a pure function of the layout — same
// declarations, same hash; any layout difference, a different hash.
func TestHashStability(t *testing.T) {
	a, b := compatSchema(), compatSchema()
	if a.Hash() != b.Hash() {
		t.Fatalf("identical schemas hash %#x != %#x", a.Hash(), b.Hash())
	}

	variants := map[string]*Schema{
		"renamed": func() *Schema {
			s := NewSchema("app")
			ConnID(s)
			FD(s)
			U64(s, "total") // count -> total
			String(s, "user", 32)
			Bytes(s, "payload", 64)
			return s.Seal()
		}(),
		"grown cap": func() *Schema {
			s := NewSchema("app")
			ConnID(s)
			FD(s)
			U64(s, "count")
			String(s, "user", 64) // 32 -> 64
			Bytes(s, "payload", 64)
			return s.Seal()
		}(),
		"reordered": func() *Schema {
			s := NewSchema("app")
			ConnID(s)
			FD(s)
			String(s, "user", 32)
			U64(s, "count")
			Bytes(s, "payload", 64)
			return s.Seal()
		}(),
		"different app": func() *Schema {
			s := NewSchema("app2")
			ConnID(s)
			FD(s)
			U64(s, "count")
			String(s, "user", 32)
			Bytes(s, "payload", 64)
			return s.Seal()
		}(),
	}
	for name, v := range variants {
		if v.Hash() == a.Hash() {
			t.Errorf("%s: hash collided with the original", name)
		}
	}
}

// TestCompareDesc: removals/moves/kind changes/shrinks are breaking;
// additions and growth are compatible.
func TestCompareDesc(t *testing.T) {
	oldS := compatSchema().Desc()

	grown := func() *Schema {
		b := NewSchema("app")
		ConnID(b)
		FD(b)
		U64(b, "count")
		String(b, "user", 32)
		Bytes(b, "payload", 128) // grown, at the tail so nothing moves
		return b.Seal()
	}().Desc()
	for _, c := range CompareDesc(oldS, grown) {
		if c.Breaking {
			t.Errorf("capacity growth flagged breaking: %+v", c)
		}
	}

	shrunk := func() *Schema {
		b := NewSchema("app")
		ConnID(b)
		FD(b)
		U64(b, "count")
		String(b, "user", 32)
		Bytes(b, "payload", 32)
		return b.Seal()
	}().Desc()
	breaking := 0
	for _, c := range CompareDesc(oldS, shrunk) {
		if c.Breaking {
			breaking++
		}
	}
	if breaking == 0 {
		t.Error("capacity shrink not flagged breaking")
	}

	removed := func() *Schema {
		b := NewSchema("app")
		ConnID(b)
		FD(b)
		U64(b, "count")
		String(b, "user", 32)
		return b.Seal()
	}().Desc()
	found := false
	for _, c := range CompareDesc(oldS, removed) {
		if c.Field == "payload" && c.What == "removed" && c.Breaking {
			found = true
		}
	}
	if !found {
		t.Error("removed field not reported breaking")
	}

	if changes := CompareDesc(oldS, oldS); len(changes) != 0 {
		t.Errorf("self-compare reports %d changes", len(changes))
	}
}

// TestVerifyDesc: the only hard failure is a stale hash — same hash,
// different layout.
func TestVerifyDesc(t *testing.T) {
	a := compatSchema().Desc()
	b := compatSchema().Desc()
	if err := VerifyDesc(a, b); err != nil {
		t.Fatalf("identical descs: %v", err)
	}

	changed := func() *Schema {
		s := NewSchema("app")
		ConnID(s)
		FD(s)
		U64(s, "count")
		String(s, "user", 64)
		Bytes(s, "payload", 64)
		return s.Seal()
	}().Desc()
	if err := VerifyDesc(a, changed); err != nil {
		t.Fatalf("differing hashes must not hard-fail: %v", err)
	}

	forged := changed
	forged.Hash = a.Hash // a build that changed layout but kept the hash
	if err := VerifyDesc(a, forged); err == nil {
		t.Fatal("stale hash with changed layout passed VerifyDesc")
	}
}
