package minissl

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"wedge/internal/netsim"
)

var (
	testKeyOnce sync.Once
	testKey     *rsa.PrivateKey
)

func serverKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateServerKey()
		if err != nil {
			t.Fatalf("GenerateServerKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

func TestMsgFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, MsgClientHello, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgClientHello || string(p) != "payload" {
		t.Fatalf("got type %d payload %q", typ, p)
	}
}

func TestMsgOversize(t *testing.T) {
	var buf bytes.Buffer
	hdr := []byte{MsgAppData, 0xFF, 0xFF, 0xFF}
	buf.Write(hdr)
	if _, _, err := ReadMsg(&buf); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("oversize read: %v", err)
	}
}

func TestExpectMsgAlert(t *testing.T) {
	var buf bytes.Buffer
	SendAlert(&buf, "boom")
	if _, err := ExpectMsg(&buf, MsgFinished); !errors.Is(err, ErrAlert) {
		t.Fatalf("alert surfaced as %v", err)
	}
}

func TestHelloRoundTrips(t *testing.T) {
	var r [RandomLen]byte
	for i := range r {
		r[i] = byte(i)
	}
	id := []byte("0123456789abcdef")

	cr, cid, err := ParseClientHello(buildClientHello(r, id))
	if err != nil || cr != r || string(cid) != string(id) {
		t.Fatalf("client hello roundtrip: %v %v %q", err, cr, cid)
	}
	sr, sid, resumed, err := ParseServerHello(BuildServerHello(r, id, true))
	if err != nil || sr != r || string(sid) != string(id) || !resumed {
		t.Fatal("server hello roundtrip")
	}
	if _, _, err := ParseClientHello([]byte("short")); err == nil {
		t.Fatal("short hello accepted")
	}
	if _, _, _, err := ParseServerHello([]byte("short")); err == nil {
		t.Fatal("short server hello accepted")
	}
}

func TestDeriveMasterDeterministicAndSensitive(t *testing.T) {
	var pm [PremasterLen]byte
	var cr, sr [RandomLen]byte
	pm[0], cr[0], sr[0] = 1, 2, 3
	m1 := DeriveMaster(pm, cr, sr)
	m2 := DeriveMaster(pm, cr, sr)
	if m1 != m2 {
		t.Fatal("not deterministic")
	}
	sr[0] = 4
	if DeriveMaster(pm, cr, sr) == m1 {
		t.Fatal("server random does not affect master secret")
	}
}

func TestKeyBlockMarshal(t *testing.T) {
	var m [MasterLen]byte
	var cr, sr [RandomLen]byte
	m[5] = 9
	k := KeyBlock(m, cr, sr)
	k2, err := UnmarshalKeys(k.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if k != k2 {
		t.Fatal("key block marshal roundtrip")
	}
	if _, err := UnmarshalKeys([]byte("short")); err == nil {
		t.Fatal("short key block accepted")
	}
}

func TestPremasterRSARoundTrip(t *testing.T) {
	key := serverKey(t)
	var pm [PremasterLen]byte
	for i := range pm {
		pm[i] = byte(i * 3)
	}
	ct, err := EncryptPremaster(&key.PublicKey, pm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecryptPremaster(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got != pm {
		t.Fatal("premaster roundtrip")
	}
	if _, err := DecryptPremaster(key, []byte("garbage")); err == nil {
		t.Fatal("garbage ciphertext accepted")
	}
}

func TestPublicKeyMarshal(t *testing.T) {
	key := serverKey(t)
	pub, err := UnmarshalPublicKey(MarshalPublicKey(&key.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(key.PublicKey.N) != 0 || pub.E != key.PublicKey.E {
		t.Fatal("public key roundtrip")
	}
	if _, err := UnmarshalPublicKey([]byte{1, 2}); err == nil {
		t.Fatal("truncated key accepted")
	}
}

func testKeys() Keys {
	var m [MasterLen]byte
	var cr, sr [RandomLen]byte
	m[0], cr[0], sr[0] = 7, 8, 9
	return KeyBlock(m, cr, sr)
}

func TestRecordRoundTrip(t *testing.T) {
	k := testKeys()
	client := NewRecordCoder(k, ClientSide)
	server := NewRecordCoder(k, ServerSide)
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 0xAA}
		sealed, err := client.Seal(MsgAppData, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := server.Open(MsgAppData, sealed)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	// And the reverse direction with independent sequences.
	sealed, _ := server.Seal(MsgAppData, []byte("reply"))
	got, err := client.Open(MsgAppData, sealed)
	if err != nil || string(got) != "reply" {
		t.Fatalf("reverse direction: %v %q", err, got)
	}
}

func TestRecordTamperDetected(t *testing.T) {
	k := testKeys()
	c := NewRecordCoder(k, ClientSide)
	s := NewRecordCoder(k, ServerSide)
	sealed, _ := c.Seal(MsgAppData, []byte("hello"))
	sealed[0] ^= 1
	if _, err := s.Open(MsgAppData, sealed); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered record: %v", err)
	}
	// The failed open must not advance the sequence: the original
	// (untampered) record still verifies.
	sealed[0] ^= 1
	if _, err := s.Open(MsgAppData, sealed); err != nil {
		t.Fatalf("valid record after reject: %v", err)
	}
}

func TestRecordReplayRejected(t *testing.T) {
	k := testKeys()
	c := NewRecordCoder(k, ClientSide)
	s := NewRecordCoder(k, ServerSide)
	sealed, _ := c.Seal(MsgAppData, []byte("once"))
	if _, err := s.Open(MsgAppData, sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(MsgAppData, sealed); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("replayed record accepted: %v", err)
	}
}

func TestRecordWrongTypeRejected(t *testing.T) {
	k := testKeys()
	c := NewRecordCoder(k, ClientSide)
	s := NewRecordCoder(k, ServerSide)
	sealed, _ := c.Seal(MsgAppData, []byte("x"))
	if _, err := s.Open(MsgFinished, sealed); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("type confusion accepted: %v", err)
	}
}

// Property: the record layer is tamper-evident for any payload and any
// single-byte corruption.
func TestPropertyRecordTamper(t *testing.T) {
	k := testKeys()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		c := NewRecordCoder(k, ClientSide)
		s := NewRecordCoder(k, ServerSide)
		sealed, err := c.Seal(MsgAppData, payload)
		if err != nil {
			return false
		}
		i := rng.Intn(len(sealed))
		sealed[i] ^= byte(1 + rng.Intn(255))
		_, err = s.Open(MsgAppData, sealed)
		return errors.Is(err, ErrBadMAC)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pipe builds an in-memory connection pair via netsim.
func pipe(t *testing.T) (client, server *netsim.Conn) {
	t.Helper()
	n := netsim.New()
	l, err := n.Listen("server:443")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *netsim.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		done <- c
	}()
	c, err := n.Dial("server:443")
	if err != nil {
		t.Fatal(err)
	}
	return c, <-done
}

func TestFullHandshakeAndData(t *testing.T) {
	key := serverKey(t)
	cache := NewSessionCache()
	cliConn, srvConn := pipe(t)

	type result struct {
		sc  *ServerConn
		err error
	}
	rch := make(chan result, 1)
	go func() {
		sc, err := ServerHandshake(srvConn, key, cache)
		rch <- result{sc, err}
	}()

	cc, err := ClientHandshake(cliConn, &ClientConfig{ServerPub: &key.PublicKey})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-rch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	if cc.Master != r.sc.Master {
		t.Fatal("client and server derived different masters")
	}
	if cc.Resumed || r.sc.Resumed {
		t.Fatal("fresh handshake marked resumed")
	}

	// Application data both ways.
	if _, err := cc.Write([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	req, err := r.sc.ReadRecord()
	if err != nil || string(req) != "GET /" {
		t.Fatalf("server read: %v %q", err, req)
	}
	if _, err := r.sc.Write([]byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.ReadRecord()
	if err != nil || string(resp) != "200 OK" {
		t.Fatalf("client read: %v %q", err, resp)
	}
}

func TestSessionResumption(t *testing.T) {
	key := serverKey(t)
	cache := NewSessionCache()

	// First, a full handshake to fill the cache.
	c1, s1 := pipe(t)
	go ServerHandshake(s1, key, cache)
	cc, err := ClientHandshake(c1, &ClientConfig{ServerPub: &key.PublicKey})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d", cache.Len())
	}

	// Resume.
	c2, s2 := pipe(t)
	rch := make(chan *ServerConn, 1)
	go func() {
		sc, err := ServerHandshake(s2, key, cache)
		if err != nil {
			t.Error(err)
		}
		rch <- sc
	}()
	cc2, err := ClientHandshake(c2, &ClientConfig{ServerPub: &key.PublicKey, Session: &cc.Session})
	if err != nil {
		t.Fatalf("resumed handshake: %v", err)
	}
	sc := <-rch
	if !cc2.Resumed || sc == nil || !sc.Resumed {
		t.Fatal("resumption did not happen")
	}
	if cc2.Master != cc.Master {
		t.Fatal("resumed session changed master")
	}
	if cache.Hits != 1 {
		t.Fatalf("cache hits = %d", cache.Hits)
	}
	// Data still flows.
	cc2.Write([]byte("ping"))
	if got, err := sc.ReadRecord(); err != nil || string(got) != "ping" {
		t.Fatalf("post-resumption data: %v %q", err, got)
	}
}

// TestClientDetectsKeySubstitution: a man in the middle presenting his own
// key is caught by the pinned public key (the certificate check).
func TestClientDetectsKeySubstitution(t *testing.T) {
	key := serverKey(t)
	mitmKey, err := GenerateServerKey()
	if err != nil {
		t.Fatal(err)
	}
	c, s := pipe(t)
	go ServerHandshake(s, mitmKey, nil) // the attacker's server
	_, err = ClientHandshake(c, &ClientConfig{ServerPub: &key.PublicKey})
	if err == nil {
		t.Fatal("client accepted substituted key")
	}
}

func TestSessionCacheMiss(t *testing.T) {
	cache := NewSessionCache()
	if _, ok := cache.Get([]byte("nope")); ok {
		t.Fatal("hit on empty cache")
	}
	if cache.Misses != 1 {
		t.Fatalf("misses = %d", cache.Misses)
	}
}

// TestRecordCoderSeqPositioning: SetSeqs rebuilds a coder mid-stream, the
// partitioned servers' pattern for persisting record state in tagged
// memory between callgate invocations.
func TestRecordCoderSeqPositioning(t *testing.T) {
	keys := Keys{}
	copy(keys.ClientWriteKey[:], bytes.Repeat([]byte{1}, KeyLen))
	copy(keys.ServerWriteKey[:], bytes.Repeat([]byte{2}, KeyLen))
	copy(keys.ClientMACKey[:], bytes.Repeat([]byte{3}, 32))
	copy(keys.ServerMACKey[:], bytes.Repeat([]byte{4}, 32))

	sender := NewRecordCoder(keys, ClientSide)
	var bodies [][]byte
	for i := 0; i < 5; i++ {
		b, err := sender.Seal(MsgAppData, []byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	if sender.WriteSeq() != 5 {
		t.Fatalf("WriteSeq = %d", sender.WriteSeq())
	}

	// A fresh coder positioned at sequence 3 opens records 3 and 4 but
	// rejects 0 (wrong seq in the MAC).
	resumed := NewRecordCoder(keys, ServerSide)
	resumed.SetSeqs(3, 0)
	if resumed.ReadSeq() != 3 {
		t.Fatalf("ReadSeq = %d", resumed.ReadSeq())
	}
	if got, err := resumed.Open(MsgAppData, bodies[3]); err != nil || string(got) != "d" {
		t.Fatalf("open seq3: %q %v", got, err)
	}
	if got, err := resumed.Open(MsgAppData, bodies[4]); err != nil || string(got) != "e" {
		t.Fatalf("open seq4: %q %v", got, err)
	}
	if _, err := resumed.Open(MsgAppData, bodies[0]); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("replay of seq0 at seq5: %v", err)
	}
}

// TestResumeTranscript: a transcript resumed from a hash continues
// exactly as the original would — the receive_finished gate's mechanism.
func TestResumeTranscript(t *testing.T) {
	var a Transcript
	a.Add(MsgClientHello, []byte("hello"))
	a.Add(MsgServerHello, []byte("world"))
	mid := a.Sum()

	b := ResumeTranscript(mid)
	a.Add(MsgFinished, []byte("fin"))
	b.Add(MsgFinished, []byte("fin"))
	if a.Sum() != b.Sum() {
		t.Fatal("resumed transcript diverged")
	}
	if b.Sum() == mid {
		t.Fatal("Add did not fold the new message")
	}
}
