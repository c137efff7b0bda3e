package dnsd

import (
	"fmt"
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

// maxMalformedAllocs bounds what a resolve-gate call with a malformed
// argument may allocate. Building the key from the blob alone makes
// about 57 allocations, so a gate that touched the key first fails this.
const maxMalformedAllocs = 10

// zoneGate runs fn as the root sthread of a fresh app holding one zone
// blob and one argument block. Root may read both, so fn can call the
// resolve gate's entry directly, with no pool or flow around it.
func zoneGate(t *testing.T, blob []byte, fn func(g *sthread.Sthread, r *Resolver, arg vm.Addr)) {
	t.Helper()
	app := sthread.Boot(kernel.New())
	err := app.Main(func(root *sthread.Sthread) {
		r := &Resolver{}
		var err error
		if r.zoneTag, r.zoneAddr, err = placeBlob(root, blob); err != nil {
			t.Error(err)
			return
		}
		argTag, err := root.App().Tags.TagNew(root.Task)
		if err != nil {
			t.Error(err)
			return
		}
		arg, err := root.Smalloc(argTag, dnsSchema.Size())
		if err != nil {
			t.Error(err)
			return
		}
		fn(root, r, arg)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gateResolve stores name in the argument block, calls the resolve
// gate's entry, and decodes its answer; ok is false when the gate failed.
func gateResolve(g *sthread.Sthread, r *Resolver, arg vm.Addr, name string) (a *Answer, ok bool) {
	if fQName.Store(g, arg, []byte(name)) != nil || r.resolveEntry(g, arg, r.zoneAddr) != 1 {
		return nil, false
	}
	a = &Answer{Status: byte(fStatus.Load(g, arg)), Name: []byte(name)}
	var verr, serr error
	a.Value, verr = fValue.Load(g, arg)
	a.Sig, serr = fSig.Load(g, arg)
	return a, verr == nil && serr == nil
}

// TestZoneRoundTrip: the zone blob is looked up in place. Every record
// answers with its value, the first of two same-named records wins, an
// empty value is still NOERROR, an absent name is a signed NXDOMAIN, the
// key round-trips, and every truncated blob is refused.
func TestZoneRoundTrip(t *testing.T) {
	key := testZoneKey(t)
	zone := append(testZone(),
		Record{Name: "empty.example", Value: ""},
		Record{Name: "www.example", Value: "198.51.100.1"},
	)
	blob, err := marshalZone(key, zone)
	if err != nil {
		t.Fatal(err)
	}
	zoneGate(t, blob, func(g *sthread.Sthread, r *Resolver, arg vm.Addr) {
		for _, c := range []struct {
			name, value string
			status      byte
		}{
			{"www.example", "192.0.2.80", StatusNoError},
			{"mail.example", "192.0.2.25", StatusNoError},
			{"empty.example", "", StatusNoError},
			{"nope.example", "", StatusNXDomain},
			{"www.exampl", "", StatusNXDomain},
		} {
			a, ok := gateResolve(g, r, arg, c.name)
			if !ok {
				t.Errorf("%s: resolve gate failed", c.name)
				continue
			}
			if a.Status != c.status || string(a.Value) != c.value {
				t.Errorf("%s: status %d value %q, want %d %q", c.name, a.Status, a.Value, c.status, c.value)
			}
			if err := a.Verify(&key.PublicKey); err != nil {
				t.Errorf("%s: signature: %v", c.name, err)
			}
		}
	})

	keyBytes, _, _, err := lookupZone(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := minissl.UnmarshalPrivateKey(keyBytes)
	if err != nil {
		t.Fatal(err)
	}
	if priv.D.Cmp(key.D) != 0 || priv.Precomputed.Qinv.Cmp(key.Precomputed.Qinv) != 0 {
		t.Fatal("private key did not round-trip")
	}
	// Truncations fail, never fault — a cut after the matching record too.
	for cut := 0; cut < len(blob); cut += 7 {
		if _, _, _, err := lookupZone(blob[:cut], []byte("www.example")); err == nil {
			t.Fatalf("truncated blob (%d bytes) parsed", cut)
		}
	}
}

// TestCorruptZoneFailsGate: the gate refuses to sign from a blob whose
// key carries a corrupted CRT value or whose record table is truncated.
func TestCorruptZoneFailsGate(t *testing.T) {
	blob, err := marshalZone(testZoneKey(t), testZone())
	if err != nil {
		t.Fatal(err)
	}
	keyBytes, _, _, err := lookupZone(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	badCRT := append([]byte(nil), blob...)
	badCRT[8+len(keyBytes)-1] ^= 0x01 // the key's last byte is Qinv's
	for name, b := range map[string][]byte{
		"corrupted Qinv":  badCRT,
		"truncated table": blob[:len(blob)-3],
	} {
		zoneGate(t, b, func(g *sthread.Sthread, r *Resolver, arg vm.Addr) {
			if _, ok := gateResolve(g, r, arg, "www.example"); ok {
				t.Errorf("%s: the gate answered", name)
			}
		})
	}
}

// TestMalformedGateCallParsesNoKey: the resolve gate checks its query
// name before it reads the zone blob, so a malformed call from a
// compromised worker costs no key construction.
func TestMalformedGateCallParsesNoKey(t *testing.T) {
	blob, err := marshalZone(testZoneKey(t), testZone())
	if err != nil {
		t.Fatal(err)
	}
	zoneGate(t, blob, func(g *sthread.Sthread, r *Resolver, arg vm.Addr) {
		for _, c := range []struct {
			name string
			set  func()
		}{
			{"empty name", func() { fQName.Store(g, arg, nil) }},
			{"length word past capacity", func() { g.Store64(arg+fQName.Off(), MaxName+1) }},
		} {
			c.set()
			allocs := testing.AllocsPerRun(20, func() {
				if r.resolveEntry(g, arg, r.zoneAddr) != 0 {
					t.Errorf("%s: the gate answered", c.name)
				}
			})
			if allocs > maxMalformedAllocs {
				t.Errorf("%s: %.0f allocations per call, want at most %d", c.name, allocs, maxMalformedAllocs)
			}
		}
	})
}

// BenchmarkResolve prices the three parts of a resolve-gate call over a
// 64-name zone: building the key from the blob, walking the record
// table for the name (one query in five is absent), and signing.
func BenchmarkResolve(b *testing.B) {
	key := testZoneKey(b)
	zone := make([]Record, 64)
	names := make([][]byte, 0, len(zone)*5/4)
	for i := range zone {
		zone[i] = Record{Name: fmt.Sprintf("host%02d.example", i), Value: fmt.Sprintf("192.0.2.%d", i)}
		names = append(names, []byte(zone[i].Name))
		if i%4 == 3 {
			names = append(names, []byte(fmt.Sprintf("absent%02d.example", i)))
		}
	}
	blob, err := marshalZone(key, zone)
	if err != nil {
		b.Fatal(err)
	}
	keyBytes, _, _, err := lookupZone(blob, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := minissl.UnmarshalPrivateKey(keyBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, _, _, err := lookupZone(blob, names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := signAnswer(key, StatusNoError, names[0], []byte(zone[0].Value)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
