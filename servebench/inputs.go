package main

import (
	"crypto/rsa"
	"fmt"
	"math"
	"math/rand/v2"

	"wedge/internal/dnsd"
	"wedge/internal/pop3"
)

// inputs is everything a run feeds the system, generated from the run's
// seed: mailboxes and their messages, the dns zone and the names outside
// it. The client's choices (principals, message picks, query names) come
// from clientRNG, so the same seed replays the same traffic.
type inputs struct {
	seed  uint64
	key   *rsa.PrivateKey // the zone-signing key; made once per process, outside any clock
	boxes []pop3.Mailbox
	zone  []dnsd.Record
	nx    []string // names the zone does not hold
}

const (
	nUsers       = 8
	msgsPerUser  = 12
	minMsgBytes  = 4
	maxMsgBytes  = 1656 // the pop3 RETR output cap
	zoneNames    = 64
	nxNames      = 16
	nxEveryOneIn = 5 // about one query in five is NXDOMAIN
)

func newInputs(seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	in := &inputs{seed: seed}
	taken := map[string]bool{}
	unique := func(format string) string {
		for {
			s := fmt.Sprintf(format, rng.Uint32())
			if !taken[s] {
				taken[s] = true
				return s
			}
		}
	}
	for u := 0; u < nUsers; u++ {
		box := pop3.Mailbox{
			User:     unique("u%08x"),
			Password: unique("pw%08x"),
			UID:      1000 + u,
		}
		for m := 0; m < msgsPerUser; m++ {
			// Sizes are log-uniform over [4, 1656]; every mailbox holds one
			// message of each extreme.
			size := maxMsgBytes
			switch {
			case m == 1:
				size = minMsgBytes
			case m > 1:
				lo, hi := math.Log(minMsgBytes), math.Log(maxMsgBytes)
				size = int(math.Exp(lo + rng.Float64()*(hi-lo)))
			}
			box.Messages = append(box.Messages, message(rng, size))
		}
		in.boxes = append(in.boxes, box)
	}
	for i := 0; i < zoneNames; i++ {
		in.zone = append(in.zone, dnsd.Record{
			Name:  unique("h%08x.example"),
			Value: fmt.Sprintf("10.%d.%d.%d", rng.IntN(256), rng.IntN(256), rng.IntN(256)),
		})
	}
	for i := 0; i < nxNames; i++ {
		in.nx = append(in.nx, unique("n%08x.example"))
	}
	return in
}

// message is size bytes of printable text broken into CRLF lines.
func message(rng *rand.Rand, size int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,:"
	b := make([]byte, size)
	for i := range b {
		switch {
		case i%72 == 70 && i+1 < size:
			b[i] = '\r'
		case i%72 == 71:
			b[i] = '\n'
		default:
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
	}
	return string(b)
}

// clientRNG is the client's stream of choices; every phase of a run
// replays it from the start.
func (in *inputs) clientRNG() *rand.Rand {
	return rand.New(rand.NewPCG(in.seed, 1))
}

// principal draws a fresh principal name: "p" and 16 hex digits, the
// fixed width the accept loop's principal header expects.
func principal(rng *rand.Rand) string {
	return fmt.Sprintf("p%016x", rng.Uint64())
}

// pickMessage draws a mailbox and one of its messages (1-based, as RETR
// numbers them).
func (in *inputs) pickMessage(rng *rand.Rand) (box *pop3.Mailbox, num int) {
	box = &in.boxes[rng.IntN(len(in.boxes))]
	return box, 1 + rng.IntN(len(box.Messages))
}

// pickName draws a query name and the answer the zone must give for it:
// the record for a zone name, nil for an NXDOMAIN one.
func (in *inputs) pickName(rng *rand.Rand) (string, *dnsd.Record) {
	if rng.IntN(nxEveryOneIn) == 0 {
		return in.nx[rng.IntN(len(in.nx))], nil
	}
	r := &in.zone[rng.IntN(len(in.zone))]
	return r.Name, r
}
