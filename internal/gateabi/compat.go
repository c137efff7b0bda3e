// Schema identity and cross-build compatibility. A sealed schema's layout
// is a wire contract twice over: gate caller and gate body agree on it
// within one build, and two *runtimes* must agree on it before the
// cluster's session handoff may move a session between them. Both
// agreements hang off the same primitive: a stable hash of the placed
// layout.
//
// Hash covers everything that affects block interpretation (name, size,
// and every field's name, kind, offset, and capacity) and nothing that
// does not, so it is identical across builds exactly when the layouts
// are interchangeable. Desc is the JSON-able projection of a schema
// (what cmd/schemadiff emits per build), and CompareDesc is the
// field-level compatibility report between two such projections.

package gateabi

import (
	"encoding/binary"
	"fmt"
)

// fnv64 constants (FNV-1a), spelled locally so the hash never drifts
// with a library change.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) bytes(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x ^= uint64(b)
		x *= fnvPrime64
	}
	*h = fnv64(x)
}

func (h *fnv64) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	x ^= 0xff // terminator: "ab","c" never hashes like "a","bc"
	x *= fnvPrime64
	*h = fnv64(x)
}

func (h *fnv64) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.bytes(b[:])
}

// Hash is the schema's stable layout identity: FNV-1a over the name, the
// block size, and every placed field (name, kind, offset, capacity) in
// declaration order. Two builds produce the same hash exactly when their
// blocks are interchangeable, so the cluster director refuses any
// session handoff whose record carries a different hash than the
// importing runtime's schema.
func (s *Schema) Hash() uint64 {
	h := fnv64(fnvOffset64)
	h.str(s.name)
	h.word(uint64(s.size))
	for _, f := range s.fields {
		h.str(f.Name)
		h.word(uint64(f.Kind))
		h.word(uint64(f.Off))
		h.word(uint64(f.Cap))
	}
	return uint64(h)
}

// Desc is the serializable projection of a sealed schema — what one
// build can emit (cmd/schemadiff -emit) so another build can diff
// against it.
type Desc struct {
	Name   string      `json:"name"`
	Size   int         `json:"size"`
	Hash   uint64      `json:"hash"`
	Fields []FieldInfo `json:"fields"`
}

// Desc returns the schema's descriptor.
func (s *Schema) Desc() Desc {
	return Desc{Name: s.name, Size: s.size, Hash: s.Hash(), Fields: s.Fields()}
}

// SchemaChange is one field-level difference between two builds of a
// schema. Breaking marks changes that reinterpret or lose existing block
// bytes (removed fields, moved or re-kinded fields, shrunk capacities);
// additions and capacity growth are compatible — old images still decode,
// they just do not fill the new space.
type SchemaChange struct {
	Field    string `json:"field"`
	What     string `json:"what"`
	Breaking bool   `json:"breaking"`
}

// CompareDesc reports the field-level differences from old to new. A nil
// report means the layouts are identical (and the hashes must agree —
// see VerifyDesc for the converse check).
func CompareDesc(old, new Desc) []SchemaChange {
	var out []SchemaChange
	newBy := make(map[string]FieldInfo, len(new.Fields))
	for _, f := range new.Fields {
		newBy[f.Name] = f
	}
	oldBy := make(map[string]FieldInfo, len(old.Fields))
	for _, f := range old.Fields {
		oldBy[f.Name] = f
		nf, ok := newBy[f.Name]
		if !ok {
			out = append(out, SchemaChange{Field: f.Name, What: "removed", Breaking: true})
			continue
		}
		if nf.Kind != f.Kind {
			out = append(out, SchemaChange{Field: f.Name, Breaking: true,
				What: fmt.Sprintf("kind %s -> %s", f.Kind, nf.Kind)})
		}
		if nf.Off != f.Off {
			out = append(out, SchemaChange{Field: f.Name, Breaking: true,
				What: fmt.Sprintf("moved +%d -> +%d", f.Off, nf.Off)})
		}
		if nf.Cap != f.Cap {
			out = append(out, SchemaChange{Field: f.Name, Breaking: nf.Cap < f.Cap,
				What: fmt.Sprintf("capacity %d -> %d", f.Cap, nf.Cap)})
		}
	}
	for _, f := range new.Fields {
		if _, ok := oldBy[f.Name]; !ok {
			out = append(out, SchemaChange{Field: f.Name, Breaking: false,
				What: fmt.Sprintf("added (%s, +%d, cap %d)", f.Kind, f.Off, f.Cap)})
		}
	}
	if old.Size != new.Size {
		out = append(out, SchemaChange{Field: "", Breaking: false,
			What: fmt.Sprintf("block size %d -> %d", old.Size, new.Size)})
	}
	return out
}

// VerifyDesc checks the one invariant a schema diff may hard-fail on: if
// two builds claim the same hash, their layouts must actually be
// identical. A hash that survives a layout change would let the director
// admit a handoff into a block it misinterprets — the exact corruption
// the hash exists to refuse.
func VerifyDesc(old, new Desc) error {
	if old.Hash != new.Hash {
		return nil
	}
	if changes := CompareDesc(old, new); len(changes) != 0 {
		return fmt.Errorf("gateabi: schema %q: hash %#x unchanged but layout differs (%d changes)",
			new.Name, new.Hash, len(changes))
	}
	return nil
}
