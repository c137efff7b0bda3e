// The pooled SSL web server: the recycled-callgate design of Table 2
// scaled across a gatepool — per-slot argument tags, principal affinity,
// inter-principal scrubbing, zero sthread creations per connection. Serves
// a burst of concurrent connections from three distinct principals, then
// prints the scheduler's counters.
//
//	go run ./examples/pooledserver
package main

import (
	"fmt"
	"log"
	"sync"

	"wedge/internal/gatepool"
	"wedge/internal/httpd"
	"wedge/internal/kernel"
	"wedge/internal/minissl"
	"wedge/internal/netsim"
	"wedge/internal/sthread"
)

func main() {
	k := kernel.New()
	priv, err := minissl.GenerateServerKey()
	if err != nil {
		log.Fatal(err)
	}
	if err := httpd.SetupDocroot(k, "/var/www", 512); err != nil {
		log.Fatal(err)
	}
	app := sthread.Boot(k)

	const conns = 12
	ready := make(chan *httpd.PooledServer, 1)
	stats := make(chan gatepool.Stats, 1)
	done := make(chan error, 1)
	go func() {
		done <- app.Main(func(root *sthread.Sthread) {
			srv, err := httpd.NewPooled(root, "/var/www", priv, true, 2, httpd.Hooks{})
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			l, err := root.Task.Listen("apache:443")
			if err != nil {
				log.Fatal(err)
			}
			ready <- srv
			var wg sync.WaitGroup
			for i := 0; i < conns; i++ {
				c, err := l.Accept()
				if err != nil {
					return
				}
				wg.Add(1)
				// Shard by a stable principal — here three simulated
				// users round-robin; in a real deployment this would be
				// the authenticated identity — so returning principals
				// get slot affinity and changing principals get scrubs.
				principal := fmt.Sprintf("user-%d", i%3)
				go func(c *netsim.Conn, principal string) {
					defer wg.Done()
					srv.ServeConnAs(c, principal)
				}(c, principal)
			}
			wg.Wait()
			stats <- srv.PoolStats()
		})
	}()
	srv := <-ready

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := k.Net.Dial("apache:443")
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			cc, err := minissl.ClientHandshake(conn, &minissl.ClientConfig{ServerPub: &priv.PublicKey})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := cc.Write([]byte("GET /index.html")); err != nil {
				log.Fatal(err)
			}
			if _, err := cc.ReadRecord(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	st := <-stats
	fmt.Printf("served %d connections over %d slots, 0 sthreads created per connection\n",
		srv.Stats.Requests.Load(), st.Slots)
	fmt.Printf("scheduler: %d acquires, %d affinity hits, %d steals, %d queued for a free ring, %d scrubs\n",
		st.Acquires, st.AffinityHits, st.Steals, st.Waits, st.Scrubs)
	for _, g := range st.Gates {
		fmt.Printf("  slot %d: %d invocations, %d scrubs, %d steals (last principal %q)\n",
			g.Slot, g.Invocations, g.Scrubs, g.Steals, g.Principal)
	}
}
