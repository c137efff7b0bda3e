// Stub of wedge/internal/serve for wedgevet golden tests: the
// registration struct scrubfootprint anchors on.
package serve

import (
	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
)

type App[T any] struct {
	Name   string
	Slots  int
	Schema *gateabi.Schema
	Gates  []gatepool.GateDef
	Worker string
}
