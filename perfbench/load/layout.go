package load

import (
	"fmt"
	"net"

	"freshsource/internal/gate"
)

// WarmTenants are warm-mix's tenants, replicated on every backend.
var WarmTenants = []string{"bl1", "bl2"}

// BackendURL is the base URL freshgate names a loopback backend by.
func BackendURL(ln net.Listener) string { return "http://" + ln.Addr().String() }

// NewGatePool builds a freshgate pool over remote backends at bases, the
// way cmd/freshgate does: each backend is named by its URL and reached over
// http.DefaultTransport.
func NewGatePool(bases []string, cfg gate.Config) (*gate.Pool, error) {
	backends := make([]*gate.Backend, len(bases))
	for i, b := range bases {
		be, err := gate.NewBackend(b)
		if err != nil {
			return nil, err
		}
		backends[i] = be
	}
	return gate.NewPool(backends, cfg)
}

// Homes maps each tenant to the name of its home backend in the pool.
func Homes(p *gate.Pool, tenants []string) map[string]string {
	out := make(map[string]string, len(tenants))
	for _, t := range tenants {
		out[t] = p.Rank(t)[0].Name()
	}
	return out
}

// maxLayoutTries bounds SplitListeners. Each try with two tenants succeeds
// with probability 1/2, so running out means the listener source is stuck.
const maxLayoutTries = 64

// SplitListeners returns one listener per tenant such that freshgate,
// routing over the listeners' URLs, homes tenants[i] on listeners[i].
// Freshgate hashes a remote backend by its URL, so which tenant a listener
// homes depends on its port; a listener that homes no tenant is replaced by
// a fresh one until every tenant has a home of its own. The layout by role
// (tenant i on backend i) is then the same whatever ports the system hands
// out. Listeners not returned are closed.
func SplitListeners(listen func() (net.Listener, error), tenants []string) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, len(tenants))
	fail := func(err error) ([]net.Listener, error) {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	for len(lns) < len(tenants) {
		ln, err := listen()
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
	}
	for try := 0; try < maxLayoutTries; try++ {
		urls := make([]string, len(lns))
		index := make(map[string]int, len(lns))
		for i, ln := range lns {
			urls[i] = BackendURL(ln)
			index[urls[i]] = i
		}
		p, err := NewGatePool(urls, gate.Config{})
		if err != nil {
			return fail(err)
		}
		homes := Homes(p, tenants)
		used := make([]bool, len(lns))
		ordered := make([]net.Listener, len(tenants))
		for i, t := range tenants {
			j := index[homes[t]]
			used[j] = true
			ordered[i] = lns[j]
		}
		idle := -1
		for j, u := range used {
			if !u {
				idle = j
				break
			}
		}
		if idle < 0 {
			return ordered, nil
		}
		// Open the replacement before closing the idle listener, so the
		// system cannot hand its port straight back.
		ln, err := listen()
		if err != nil {
			return fail(err)
		}
		lns[idle].Close()
		lns[idle] = ln
	}
	return fail(fmt.Errorf("load: no listener layout homes %v on distinct backends after %d tries", tenants, maxLayoutTries))
}
