// Stub of wedge/internal/gatepool for wedgevet golden tests.
package gatepool

import (
	"wedge/internal/gateabi"
	"wedge/internal/policy"
	"wedge/internal/sthread"
	"wedge/internal/vm"
)

type GateDef struct {
	Name    string
	SC      *policy.SC
	Entry   sthread.GateFunc
	Trusted vm.Addr
}

type Config struct {
	Name   string
	Slots  int
	Gates  []GateDef
	Schema *gateabi.Schema
}
