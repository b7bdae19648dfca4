package job

import (
	"time"

	"clonos/internal/audit"
	"clonos/internal/faultinject"
	"clonos/internal/inflight"
	"clonos/internal/obs"
	"clonos/internal/services"
)

// Mode selects the fault-tolerance mechanism.
type Mode int

const (
	// ModeGlobal is the baseline: coordinated checkpoints with global
	// rollback recovery — every task restarts from the last completed
	// checkpoint ("vanilla Flink").
	ModeGlobal Mode = iota
	// ModeClonos enables in-flight record logs, causal logging, and
	// local recovery with optional standby tasks.
	ModeClonos
)

func (m Mode) String() string {
	if m == ModeClonos {
		return "clonos"
	}
	return "global"
}

// Guarantee is the processing guarantee Clonos mode is configured for
// (§5.4). ModeGlobal always behaves as exactly-once w.r.t. state.
type Guarantee int

const (
	// ExactlyOnce enables in-flight logging and causal logging (DSD>=1).
	ExactlyOnce Guarantee = iota
	// AtLeastOnce keeps in-flight logging but disables determinants
	// (DSD=0): divergent rollback recovery, duplicates possible.
	AtLeastOnce
	// AtMostOnce disables both: gap recovery, in-flight records lost.
	AtMostOnce
)

func (g Guarantee) String() string {
	switch g {
	case AtLeastOnce:
		return "at-least-once"
	case AtMostOnce:
		return "at-most-once"
	default:
		return "exactly-once"
	}
}

// Engine parameters no caller varies.
const (
	checkpointTimeout      = 30 * time.Second // the coordinator abandons a checkpoint not acked by then
	timestampGranularityMs = 1                // refresh period of the Timestamp service cache
	mailboxSize            = 1024             // bound of a source task's queue of checkpoint triggers
	latencyMarkerEvery     = 64               // source records between two latency markers
)

// Config is the runtime configuration of one job.
type Config struct {
	Mode      Mode
	Guarantee Guarantee
	// DSD is the determinant sharing depth; 0 picks the graph depth
	// ("full"). Ignored unless Mode is ModeClonos with ExactlyOnce.
	DSD int
	// Standby deploys one idle standby task per running task with
	// state preloaded after every checkpoint (high-availability mode).
	Standby bool
	// Nodes simulates a cluster with that many nodes for placement and
	// node-failure experiments (§6.3); 0 disables node simulation.
	Nodes int
	// StandbyAllocation places standby tasks relative to the tasks they
	// mirror (§6.3).
	StandbyAllocation AllocationStrategy

	CheckpointInterval time.Duration
	// HeartbeatTimeout bounds failure detection; it is not a wait. A
	// crash is declared at the break, in both modes; a quarter of this is
	// the period of the fallback sweep for a dead task whose wake-up could
	// not be acted on (see Runtime.liveness). Half of it is the settle
	// pause of a global restart.
	HeartbeatTimeout time.Duration

	// BufferSize is the network-buffer size in bytes.
	BufferSize int
	// ChannelBuffers is each output channel's pool size (Flink keeps
	// this small so backpressure stays reactive; ~10).
	ChannelBuffers int
	// EndpointCredit is each receiver queue's capacity in buffers.
	EndpointCredit int
	// LogPoolBuffers is the per-task in-flight-log pool size (the
	// paper's 80 MB / 32 KiB ≈ 2560; scaled down here).
	LogPoolBuffers int
	// BufferTimeout bounds how long output may wait in a partial buffer
	// (Flink's buffer timeout). A task's main thread cuts its partial
	// buffers when it goes idle with every input delivered, which is
	// normally much sooner; the bound covers a task that is never idle or
	// waits on an input gone silent. Either cut is a nondeterministic
	// buffer size, logged as a BUFFERSIZE determinant in the task's log
	// where the main thread dispatches it; guided replay cuts where that
	// log says, not by this bound.
	BufferTimeout time.Duration
	// InFlight configures spill behaviour.
	InFlight inflight.Config

	// World is the simulated external world reachable from UDFs.
	World *services.ExternalWorld
	// SnapshotDir persists checkpoints to disk when non-empty.
	SnapshotDir string

	// Obs is the metrics registry the runtime reports into; nil creates
	// a private one (retrievable via Runtime.Obs).
	Obs *obs.Registry
	// IncrementalCheckpoints ships only the state entries changed since
	// the previous snapshot (§6.4); the snapshot store reconstructs the
	// full image. The first snapshot after start or recovery is full.
	IncrementalCheckpoints bool

	// AlignmentBudget is how long a pending barrier alignment may gate
	// the channels whose barrier has arrived. Past it the task converts
	// the alignment to an unaligned checkpoint: it snapshots where it
	// stands, reopens the gated channels, and logs the pre-barrier input
	// still in flight on the other channels into the snapshot, acking
	// once their barriers are in. 0 converts at the first barrier, so no
	// channel is ever gated. DefaultConfig sets checkpointTimeout, after
	// which the coordinator abandons the checkpoint anyway: aligned.
	AlignmentBudget time.Duration

	// StallDeadline arms the runtime's stall watchdog: a tracer event
	// fires when a running task's watermark/offset, a pending barrier
	// alignment, or checkpoint completion stops advancing for this long.
	// 0 disables the watchdog.
	StallDeadline time.Duration
	// TraceMaxEvents / TraceMaxSpans bound the tracer's retention rings
	// (0 keeps the obs package defaults: 8192 events, 1024 spans).
	TraceMaxEvents int
	TraceMaxSpans  int
	// TraceSink, when set, additionally receives every tracer event and
	// ended span as it is published — the flight recorder plugs in here.
	TraceSink obs.TracerSink

	// ServiceSeed, when non-zero, derives a deterministic per-task seed
	// stream for the nondeterministic UDF services (random source):
	// replaying a crash schedule then reproduces the exact nondeterminant
	// stream the determinant log claims to cover. 0 preserves the
	// wall-clock fallback seeding.
	ServiceSeed int64
	// Faults, when set, arms the crash-point injector: the runtime calls
	// it at every named crash point and crashes whatever task the armed
	// schedule dictates. Nil (the default) keeps every crash point a
	// no-op.
	Faults *faultinject.Injector
	// Audit, when set, arms the online causal-consistency audit plane:
	// stream continuity/byte-identity checks at delivery and replay,
	// snapshot fingerprint attestation at restore, and watermark/marker
	// sanity checks, each violation reported through the tracer and the
	// clonos_audit_violations_total counter. Nil (the default) keeps
	// every audit hook a no-op; the stream checks are only sound under
	// ExactlyOnce (divergent at-least-once replay legitimately rewrites
	// streams), so other guarantees disarm the per-task hooks.
	Audit *audit.Auditor
}

// DefaultConfig returns a configuration scaled for in-process experiments
// (~10x faster clocks than the paper's cluster settings).
func DefaultConfig() Config {
	return Config{
		Mode:               ModeClonos,
		Guarantee:          ExactlyOnce,
		DSD:                1,
		Standby:            true,
		CheckpointInterval: 500 * time.Millisecond,
		HeartbeatTimeout:   600 * time.Millisecond,
		BufferSize:         8 * 1024,
		ChannelBuffers:     10,
		EndpointCredit:     16,
		LogPoolBuffers:     512,
		BufferTimeout:      5 * time.Millisecond,
		InFlight:           inflight.Config{Policy: inflight.PolicySpillThreshold, Threshold: 0.25},
		AlignmentBudget:    checkpointTimeout,
		StallDeadline:      5 * time.Second,
	}
}

// effectiveDSD resolves the configured sharing depth against the graph.
func (c Config) effectiveDSD(g *Graph) int {
	if c.Mode != ModeClonos || c.Guarantee != ExactlyOnce {
		return 0
	}
	if c.DSD <= 0 {
		d := g.Depth()
		if d < 1 {
			d = 1
		}
		return d
	}
	return c.DSD
}
