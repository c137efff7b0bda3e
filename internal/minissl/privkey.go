// Private-key serialization. The partitioned servers keep the server's RSA
// private key in tagged simulated memory — the whole point of §5.1 — so it
// must round-trip through bytes. The format is a simple length-prefixed
// big-integer sequence (N, E, D, P, Q, Dp, Dq, Qinv); offline simulation
// only.
//
// The CRT values ride in the blob so that a gate reading the key needs no
// modular exponentiation to rebuild them: crypto/rsa checks the stored
// values against the primes on every parse (p·q = N, e·Dp ≡ 1 mod p−1,
// e·Dq ≡ 1 mod q−1, Qinv·q ≡ 1 mod p), which costs a fraction of deriving
// Qinv. Nothing parsed is kept between parses: the key lives only in the
// tagged blob.

package minissl

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

func appendInt(out []byte, x *big.Int) []byte {
	b := x.Bytes()
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	out = append(out, l[:]...)
	return append(out, b...)
}

func readInt(b []byte) (*big.Int, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrBadMessage
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, ErrBadMessage
	}
	return new(big.Int).SetBytes(b[:n]), b[n:], nil
}

// MarshalPrivateKey serializes a two-prime RSA private key, with the CRT
// values its Precomputed field already holds (rsa.GenerateKey fills them
// in), for placement in tagged memory. The key is validated once, here:
// one without CRT values, or whose CRT values disagree with its primes,
// is refused. Nothing is derived and the caller's key is not modified —
// rsa.PrivateKey.Validate checks the stored values, and costs nothing
// for a key crypto/rsa generated or has already checked.
func MarshalPrivateKey(priv *rsa.PrivateKey) ([]byte, error) {
	pre := &priv.Precomputed
	if len(priv.Primes) != 2 || pre.Dp == nil || pre.Dq == nil || pre.Qinv == nil {
		return nil, errors.New("minissl: private key needs two primes and precomputed CRT values")
	}
	if err := priv.Validate(); err != nil {
		return nil, fmt.Errorf("minissl: invalid private key: %w", err)
	}
	out := appendInt(nil, priv.N)
	out = appendInt(out, big.NewInt(int64(priv.E)))
	for _, x := range []*big.Int{priv.D, priv.Primes[0], priv.Primes[1], pre.Dp, pre.Dq, pre.Qinv} {
		out = appendInt(out, x)
	}
	return out, nil
}

// UnmarshalPrivateKey parses MarshalPrivateKey's output. Every stored
// value is checked by crypto/rsa before the key is returned, and the
// blob must end exactly after Qinv.
func UnmarshalPrivateKey(b []byte) (*rsa.PrivateKey, error) {
	var v [8]*big.Int // N, E, D, P, Q, Dp, Dq, Qinv
	for i := range v {
		var err error
		if v[i], b, err = readInt(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 || v[1].BitLen() > 31 { // E must fit an int everywhere
		return nil, ErrBadMessage
	}
	priv := &rsa.PrivateKey{
		PublicKey:   rsa.PublicKey{N: v[0], E: int(v[1].Int64())},
		D:           v[2],
		Primes:      []*big.Int{v[3], v[4]},
		Precomputed: rsa.PrecomputedValues{Dp: v[5], Dq: v[6], Qinv: v[7]},
	}
	priv.Precompute()
	if err := priv.Validate(); err != nil {
		return nil, fmt.Errorf("minissl: invalid private key: %w", err)
	}
	return priv, nil
}
