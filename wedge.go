// Package wedge is a faithful, simulator-backed reproduction of the system
// described in "Wedge: Splitting Applications into Reduced-Privilege
// Compartments" (Bittau, Marchenko, Handley, Karp — NSDI 2008).
//
// Wedge lets a programmer split an application into compartments with
// default-deny semantics. Its three primitives are:
//
//   - Sthreads: threads of control bound to an explicit security policy.
//     A new sthread holds no privileges beyond a private copy-on-write
//     view of the pristine pre-main process image.
//   - Tagged memory: memory allocated under a tag, so that privileges can
//     be granted to sthreads at tag granularity (read, read-write, or
//     copy-on-write).
//   - Callgates: privileged entry points implemented as fresh sthreads,
//     with kernel-held permissions and a tamper-proof trusted argument.
//     Recycled callgates amortize creation cost for hot paths.
//
// Because the Go runtime cannot page-protect slices of its own heap, this
// reproduction runs application memory inside a simulated MMU
// (internal/vm) on a simulated kernel (internal/kernel). Every load and
// store performed by compartmentalized code is checked exactly where
// hardware would check it. See DESIGN.md for the substitution argument.
//
// # Quickstart
//
//	sys := wedge.NewSystem()
//	err := sys.Main(func(main *wedge.Sthread) {
//		secretTag, _ := sys.TagNew(main)
//		secret, _ := main.Smalloc(secretTag, 64)
//		main.Write(secret, []byte("the private key"))
//
//		// A callgate that may read the secret.
//		gateSC := wedge.NewSC()
//		gateSC.MemAdd(secretTag, wedge.PermRead)
//		var sign wedge.GateFunc = func(g *wedge.Sthread, arg, trusted wedge.Addr) wedge.Addr {
//			... // compute using the secret
//		}
//
//		// An unprivileged worker that can invoke the gate but never
//		// read the secret directly.
//		workerSC := wedge.NewSC()
//		workerSC.GateAdd(sign, gateSC, secret, "sign")
//		worker, _ := main.Create(workerSC, workerBody, 0)
//		main.Join(worker)
//	})
//
// The subpackages under internal implement the substrate; this package is
// the supported public surface, mirroring the paper's Table 1.
package wedge

import (
	"wedge/internal/gateabi"
	"wedge/internal/gatepool"
	"wedge/internal/kernel"
	"wedge/internal/netsim"
	"wedge/internal/policy"
	"wedge/internal/selinux"
	"wedge/internal/serve"
	"wedge/internal/sthread"
	"wedge/internal/tags"
	"wedge/internal/vfs"
	"wedge/internal/vm"
)

// Core re-exported types. These aliases make the public API self-contained
// while keeping one implementation of each concept.
type (
	// Addr is a simulated virtual address (the void* of the paper's API).
	Addr = vm.Addr
	// Perm is a page permission set for memory grants.
	Perm = vm.Perm
	// Fault is the protection fault terminating an sthread that oversteps.
	Fault = vm.Fault
	// Tag names a tagged-memory segment (tag_t).
	Tag = tags.Tag
	// SC is a security policy (sc_t).
	SC = policy.SC
	// GateSpec is a callgate authorization held inside a policy.
	GateSpec = policy.GateSpec
	// Sthread is a compartment (sthread_t plus its thread of control).
	Sthread = sthread.Sthread
	// Body is an sthread entry point (cb_t).
	Body = sthread.Body
	// GateFunc is a callgate entry point.
	GateFunc = sthread.GateFunc
	// Recycled is a long-lived, reusable callgate.
	Recycled = sthread.Recycled
	// Violation is one logged access denial from the emulation library.
	Violation = sthread.Violation
	// FDPerm is a file-descriptor grant mode.
	FDPerm = kernel.FDPerm
	// Task is the underlying kernel task of an sthread.
	Task = kernel.Task

	// GatePool is a sharded pool of recycled callgates with per-principal
	// affinity and inter-principal argument scrubbing.
	GatePool = gatepool.Pool
	// GatePoolConfig sizes and populates a GatePool.
	GatePoolConfig = gatepool.Config
	// GateDef names one recycled entry point every pool slot instantiates.
	GateDef = gatepool.GateDef
	// GateLease is one session's claim on a pool slot's ring, Acquire to
	// Release.
	GateLease = gatepool.Lease
	// BatchFunc is a pool's worker body (GateDef.Batch): it drains its
	// slot's ring, one Batch entry at a time.
	BatchFunc = sthread.BatchFunc
	// Batch is a worker body's cursor over its ring's pending entries.
	Batch = sthread.Batch
	// GatePoolStats is a snapshot of a pool's scheduling counters.
	GatePoolStats = gatepool.Stats

	// ServeApp declares a pooled wedge application for the serve runtime:
	// the gates every slot carries, which gate is the per-connection
	// worker, and the per-connection state type T.
	ServeApp[T any] = serve.App[T]
	// ServeRuntime runs a ServeApp: pool lifecycle, accept loop, graceful
	// drain, admission control, and a unified metrics snapshot.
	ServeRuntime[T any] = serve.Runtime[T]
	// ServedConn is one in-flight connection's record (lease, descriptor,
	// app state), reachable from gate entries via Runtime.Lookup.
	ServedConn[T any] = serve.Conn[T]
	// ServeState is a runtime's lifecycle position.
	ServeState = serve.State
	// ServeSnapshot is the unified runtime + pool observability surface.
	ServeSnapshot = serve.Snapshot
	// SlotPin is a NUMA-style slot→CPU placement hint.
	SlotPin = serve.SlotPin
	// OverloadError is the serve runtime's typed admission rejection.
	OverloadError = serve.OverloadError

	// ConnTable issues connection ids and demultiplexes per-connection
	// state of type T behind a pooled gate — the mechanism every built-in
	// ServeApp uses for gate-side session state. The table is sharded
	// (power-of-two shard count sized from GOMAXPROCS, two-choice
	// hashing) so million-principal churn does not serialize on one
	// lock; ids stay globally monotonic and are never reused. Gate
	// entries resolving a worker-supplied id must additionally pin the
	// result to the invoking slot (ServeRuntime.Lookup does both); see
	// the package documentation of internal/gatepool for the isolation
	// argument.
	ConnTable[T any] = gatepool.ConnTable[T]

	// GateSchema is a declarative argument-block layout: ordered typed
	// fields with a computed layout, hard codec-enforced capacities, and
	// schema-derived scrub/probe footprints. Every ServeApp carries one;
	// gate bodies touch the block only through its typed field handles.
	GateSchema = gateabi.Schema
	// GateSchemaBuilder accumulates field declarations; Seal produces the
	// immutable GateSchema.
	GateSchemaBuilder = gateabi.Builder
	// GateFieldInfo describes one placed schema field.
	GateFieldInfo = gateabi.FieldInfo
	// ArgBoundsError is the typed codec rejection: a payload or a
	// block-resident length word exceeded a field's declared capacity.
	// Nothing is silently truncated and nothing is written or read past
	// the field.
	ArgBoundsError = gateabi.ArgBoundsError
	// WordField is the typed handle of one 64-bit block word.
	WordField[T gateabi.Integer] = gateabi.WordField[T]
	// BytesField is the typed handle of a length-prefixed byte area.
	BytesField = gateabi.BytesField
	// StringField is the typed handle of a NUL-terminated string area.
	StringField = gateabi.StringField
	// FixedField is the typed handle of an exact-size byte area.
	FixedField = gateabi.FixedField
)

// NewGateSchema starts a gate argument-block schema; declare fields with
// GateU64/GateWord/GateBytes/GateString/GateFixed (plus GateConnID and
// GateFD for a schema served by the serve runtime) and finish with Seal.
func NewGateSchema(name string) *GateSchemaBuilder { return gateabi.NewSchema(name) }

// Field declaration helpers, re-exported from the gate ABI.
var (
	// GateU64 declares one uint64 block word.
	GateU64 = gateabi.U64
	// GateBytes declares a length-prefixed byte area with a hard capacity.
	GateBytes = gateabi.Bytes
	// GateString declares a NUL-terminated string area.
	GateString = gateabi.String
	// GateFixed declares an exact-size byte area.
	GateFixed = gateabi.Fixed
	// GateConnID reserves the serve runtime's connection-id demux word.
	GateConnID = gateabi.ConnID
	// GateFD reserves the serve runtime's descriptor-number demux word.
	GateFD = gateabi.FD
)

// GateWord declares one 64-bit block word viewed as integer type T.
func GateWord[T gateabi.Integer](b *GateSchemaBuilder, name string) WordField[T] {
	return gateabi.Word[T](b, name)
}

// ErrArgBounds is the errors.Is target for every gate-ABI codec bounds
// rejection (see ArgBoundsError).
var ErrArgBounds = gateabi.ErrArgBounds

// The serve runtime's lifecycle states: serving → draining → closed.
const (
	StateServing  = serve.StateServing
	StateDraining = serve.StateDraining
	StateClosed   = serve.StateClosed
)

// ErrOverloaded is the errors.Is target for every serve-runtime
// admission rejection (queue overflow, draining, closed).
var ErrOverloaded = serve.ErrOverloaded

// NewServeRuntime builds a serve runtime from an application descriptor
// on the given (typically root) sthread. The runtime owns what every
// pooled server otherwise re-implements: pool construction and teardown,
// a Serve accept loop, graceful Drain (in-flight connections complete,
// new admissions fail with ErrOverloaded), hot Resize with an auto mode
// tracking GOMAXPROCS, bounded-queue admission control, slot→CPU pin
// hints, and a unified Snapshot. httpd.PooledServer, sshd.PooledWedge,
// and pop3.PooledServer are all thin descriptors on this runtime.
func NewServeRuntime[T any](creator *Sthread, app ServeApp[T]) (*ServeRuntime[T], error) {
	return serve.New(creator, app)
}

// DefaultPoolSlots is the serve runtime's shared slot-count policy:
// twice the host parallelism, floored at two. Slot count should track
// available parallelism, not connection concurrency.
func DefaultPoolSlots() int { return serve.DefaultSlots() }

// NewGatePool builds a sharded recycled-callgate pool on the given
// (typically root) sthread, which creates every slot's argument tag and
// gates. Where a single recycled callgate trades §3.3 isolation for
// throughput, the pool partitions the trade: slots never share argument
// memory, principals shard onto slots by hash affinity with work stealing,
// and argument blocks are scrubbed whenever a slot passes between
// principals. See internal/gatepool for the scheduling policy.
func NewGatePool(creator *Sthread, cfg GatePoolConfig) (*GatePool, error) {
	return gatepool.New(creator, cfg)
}

// Permission constants.
const (
	// PermRead grants read access to a tag's segment.
	PermRead = vm.PermRead
	// PermWrite grants write access (always paired with read).
	PermWrite = vm.PermWrite
	// PermRW grants read-write access.
	PermRW = vm.PermRW
	// PermCOW grants a private copy-on-write view.
	PermCOW = vm.PermCOW

	// FDRead grants reading a descriptor.
	FDRead = kernel.FDRead
	// FDWrite grants writing a descriptor.
	FDWrite = kernel.FDWrite
	// FDRW grants both.
	FDRW = kernel.FDRW

	// NoTag is the zero tag: unreachable, unnameable memory.
	NoTag = tags.NoTag

	// InheritUID keeps the creator's user id in a policy.
	InheritUID = policy.InheritUID

	// PageSize is the simulated page size.
	PageSize = vm.PageSize
)

// ErrMemLimit is returned when an allocation would exceed an sthread's
// memory quota (SC.SetMemPages) — the resource-exhaustion mitigation
// extending the paper's §7 DoS discussion.
var ErrMemLimit = vm.ErrMemLimit

// ErrNoMem is returned by Smalloc when a tag's arena cannot grow further:
// the arena has reached the registry's per-tag cap (SetArenaCap). Below
// the cap, exhausting a segment maps another one instead of failing —
// which is what lets the recycled servers' shared argument tags scale
// past the former fixed 64 KiB arena (~60 in-flight connections).
var ErrNoMem = tags.ErrNoMem

// ErrPoolDraining is returned by GatePool.Acquire and GatePool.Resize
// while a Drain is in progress.
var ErrPoolDraining = gatepool.ErrDraining

// ErrPoolClosed is returned by GatePool operations after Close.
var ErrPoolClosed = gatepool.ErrClosed

// NewSC returns an empty security policy granting nothing.
func NewSC() *SC { return policy.New() }

// System is one simulated machine booted with one Wedge application: the
// kernel (filesystem, network, SELinux policy) plus the application's tag
// registry and pristine snapshot.
type System struct {
	// K is the simulated kernel, exposed for scenario setup (populating
	// the filesystem, installing SELinux rules, tapping the network).
	K *kernel.Kernel
	// App is the Wedge application instance.
	App *sthread.App
}

// NewSystem boots a fresh simulated machine and application.
func NewSystem() *System {
	k := kernel.New()
	return &System{K: k, App: sthread.Boot(k)}
}

// Premain runs initialization in the init task before the pristine
// snapshot is taken; memory written here is inherited (copy-on-write) by
// every sthread.
func (sys *System) Premain(fn func(init *Task)) error { return sys.App.Premain(fn) }

// BoundaryVar declares a statically initialized global in the page-aligned
// section for id, returning its address (the BOUNDARY_VAR macro). Globals
// declared this way are excluded from the pristine snapshot.
func (sys *System) BoundaryVar(id int, def []byte) (Addr, error) {
	return sys.App.BoundaryVar(id, def)
}

// BoundaryTag returns the tag covering the boundary section for id (the
// BOUNDARY_TAG macro).
func (sys *System) BoundaryTag(id int) (Tag, error) { return sys.App.BoundaryTag(id) }

// Main takes the pristine snapshot and runs fn as the root sthread,
// returning the fault if the root died on one.
func (sys *System) Main(fn func(main *Sthread)) error { return sys.App.Main(fn) }

// TagNew creates a fresh memory tag backed by a new segment in s's address
// space (tag_new). The segment is the first of a growable chain: smalloc
// maps further segments on exhaustion, up to the arena cap.
func (sys *System) TagNew(s *Sthread) (Tag, error) { return sys.App.Tags.TagNew(s.Task) }

// SetArenaCap bounds how large any one tag's arena may grow, in bytes
// (rounded up to whole segments; 0 restores the default of 4 MiB).
// Smalloc fails with ErrNoMem only once growth past the cap would be
// required, so the cap is the knob trading memory headroom against
// resistance to one tag absorbing the whole simulated memory.
func (sys *System) SetArenaCap(bytes int) { sys.App.Tags.SetMaxRegionSize(bytes) }

// ArenaGrows reports how many arena segments have been mapped beyond
// first segments — the mechanical counter behind the growable-arena
// design note (a nonzero value means some fixed-arena build would have
// returned ENOMEM and shed load). Safe to poll while serving.
func (sys *System) ArenaGrows() uint64 { return sys.App.Tags.GrowCount() }

// TagDelete retires a tag; its segment is scrubbed and cached for reuse
// (tag_delete).
func (sys *System) TagDelete(tag Tag) error { return sys.App.Tags.TagDelete(tag) }

// TagOf reports which tag's segment contains addr, or NoTag.
func (sys *System) TagOf(addr Addr) Tag { return sys.App.Tags.TagOf(addr) }

// Violations returns the accesses denied-by-policy that emulated sthreads
// performed (the emulation library of §3.4).
func (sys *System) Violations() []Violation { return sys.App.Violations() }

// Stats exposes primitive-operation counters.
func (sys *System) Stats() *sthread.Stats { return &sys.App.Stats }

// FS returns the simulated filesystem, for scenario setup.
func (sys *System) FS() *vfs.FS { return sys.K.FS }

// Net returns the simulated network, for clients and man-in-the-middle
// interposition in tests.
func (sys *System) Net() *netsim.Network { return sys.K.Net }

// SEPolicy returns the system-wide SELinux policy.
func (sys *System) SEPolicy() *selinux.Policy { return sys.K.Policy }
