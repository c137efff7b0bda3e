package minissl

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"testing"
)

// keyFields returns the [start, end) byte span of each length-prefixed
// integer in a private-key blob: N, E, D, P, Q, Dp, Dq, Qinv.
func keyFields(t *testing.T, blob []byte) [][2]int {
	t.Helper()
	var spans [][2]int
	for off := 0; off < len(blob); {
		n := int(binary.BigEndian.Uint32(blob[off:]))
		spans = append(spans, [2]int{off + 4, off + 4 + n})
		off += 4 + n
	}
	if len(spans) != 8 {
		t.Fatalf("blob holds %d integers, want 8", len(spans))
	}
	return spans
}

// TestPrivateKeyRoundTrip: the serialization used to place the server key
// in tagged memory reproduces a working key, CRT values included, and
// corrupt blobs are rejected.
func TestPrivateKeyRoundTrip(t *testing.T) {
	priv := serverKey(t)
	blob, err := MarshalPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(priv.N) != 0 || got.D.Cmp(priv.D) != 0 || got.E != priv.E {
		t.Fatal("key fields changed in round trip")
	}
	if got.Precomputed.Dp.Cmp(priv.Precomputed.Dp) != 0 ||
		got.Precomputed.Dq.Cmp(priv.Precomputed.Dq) != 0 ||
		got.Precomputed.Qinv.Cmp(priv.Precomputed.Qinv) != 0 {
		t.Fatal("CRT values changed in round trip")
	}
	// The recovered key actually decrypts.
	pm, err := NewPremaster(bytes.NewReader(bytes.Repeat([]byte{3}, PremasterLen)))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := EncryptPremaster(&priv.PublicKey, pm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptPremaster(got, ct)
	if err != nil || back != pm {
		t.Fatalf("recovered key failed to decrypt: %v", err)
	}
	// And it signs: the signature verifies under the original public key.
	sum := sha256.Sum256([]byte("zone answer"))
	sig, err := rsa.SignPKCS1v15(rand.Reader, got, crypto.SHA256, sum[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := rsa.VerifyPKCS1v15(&priv.PublicKey, crypto.SHA256, sum[:], sig); err != nil {
		t.Fatalf("recovered key's signature: %v", err)
	}
	// Truncations are rejected, never panic.
	for _, n := range []int{0, 3, 4, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalPrivateKey(blob[:n]); err == nil {
			t.Errorf("truncated blob (%d bytes) accepted", n)
		}
	}
	// A corrupted last byte fails validation rather than yielding a wrong key.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := UnmarshalPrivateKey(bad); err == nil {
		t.Error("corrupted key blob accepted")
	}
	// So does one flipped byte inside each stored CRT value.
	spans := keyFields(t, blob)
	for i, name := range map[int]string{5: "Dp", 6: "Dq", 7: "Qinv"} {
		bad := append([]byte(nil), blob...)
		bad[(spans[i][0]+spans[i][1])/2] ^= 0x01
		if _, err := UnmarshalPrivateKey(bad); err == nil {
			t.Errorf("blob with a corrupted %s accepted", name)
		}
	}
	// Trailing bytes are refused: the blob ends exactly after Qinv.
	if _, err := UnmarshalPrivateKey(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("blob with a trailing byte accepted")
	}
	// The old layout (N, E, D, P, Q, no CRT values) is refused.
	old := appendInt(nil, priv.N)
	old = appendInt(old, big.NewInt(int64(priv.E)))
	for _, x := range []*big.Int{priv.D, priv.Primes[0], priv.Primes[1]} {
		old = appendInt(old, x)
	}
	if _, err := UnmarshalPrivateKey(old); err == nil {
		t.Error("blob in the 5-integer layout accepted")
	}
}

// TestMarshalPrivateKeyValidates: a key is checked when its blob is built,
// never repaired — stored CRT values that disagree with the primes, or
// none at all, are an error, and the caller's key is left as it was.
func TestMarshalPrivateKeyValidates(t *testing.T) {
	priv := serverKey(t)
	pre := priv.Precomputed
	one := big.NewInt(1)
	for name, vals := range map[string]rsa.PrecomputedValues{
		"Dp+1":   {Dp: new(big.Int).Add(pre.Dp, one), Dq: pre.Dq, Qinv: pre.Qinv},
		"Dq+1":   {Dp: pre.Dp, Dq: new(big.Int).Add(pre.Dq, one), Qinv: pre.Qinv},
		"Qinv+1": {Dp: pre.Dp, Dq: pre.Dq, Qinv: new(big.Int).Add(pre.Qinv, one)},
		"none":   {},
	} {
		key := &rsa.PrivateKey{PublicKey: priv.PublicKey, D: priv.D, Primes: priv.Primes, Precomputed: vals}
		if _, err := MarshalPrivateKey(key); err == nil {
			t.Errorf("%s: key with bad CRT values marshalled", name)
		}
		if name == "none" && key.Precomputed.Dp != nil {
			t.Error("MarshalPrivateKey filled in the caller's CRT values")
		}
	}
	multi := &rsa.PrivateKey{PublicKey: priv.PublicKey, D: priv.D,
		Primes: []*big.Int{priv.Primes[0], priv.Primes[1], big.NewInt(3)}, Precomputed: pre}
	if _, err := MarshalPrivateKey(multi); err == nil {
		t.Error("three-prime key marshalled")
	}
}

// BenchmarkUnmarshalPrivateKey prices the key construction every key gate
// performs per call: parse the blob and have crypto/rsa check the stored
// CRT values.
func BenchmarkUnmarshalPrivateKey(b *testing.B) {
	blob, err := MarshalPrivateKey(serverKey(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := UnmarshalPrivateKey(blob); err != nil {
			b.Fatal(err)
		}
	}
}
