// Package persist is the durable-state subsystem of the online stack:
// everything the paper's BN server and model management module keep in
// process memory — the streaming behavior log, the time-evolving graph,
// the scheduling state of Algorithm 1's window jobs and the serving
// model's weights — survives a crash or restart through three artifacts
// kept under one data directory:
//
//	wal/          segmented, CRC32C-framed append-only log of behavior
//	              events (ingested logs and transaction registrations),
//	              with configurable fsync policy and size-based rotation
//	checkpoints/  periodic full-state checkpoints written atomically
//	              (temp file + rename); older WAL segments are truncated
//	              once a checkpoint covers them
//	models/       versioned model artifacts: binary weight blobs plus a
//	              JSON manifest (version, kind, dims, checksum)
//
// Recovery on boot loads the newest valid checkpoint, replays the WAL
// tail through the server, loads the newest valid model artifact and
// only then lets the server report ready. The reader tolerates a torn or
// truncated tail on the last WAL segment — the expected shape of a crash
// mid-write — by truncating to the last whole record and counting the
// loss, never by failing the boot.
package persist

import (
	"hash/crc32"
	"time"

	"turbo/internal/telemetry"
)

// castagnoli is the CRC32C polynomial table shared by WAL frames,
// checkpoint files and model artifacts.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy controls when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append (and after every batch):
	// maximum durability, one fsync per ingest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer: a crash loses at most
	// one interval of acknowledged events.
	FsyncInterval
	// FsyncNone never syncs explicitly; durability is whatever the OS
	// page cache happens to have written. Benchmarks and tests only.
	FsyncNone
)

// String names the policy the way the -wal.fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return "unknown"
}

// ParseFsyncPolicy maps a -wal.fsync flag value to its policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, errBadPolicy(s)
}

type errBadPolicy string

func (e errBadPolicy) Error() string {
	return "persist: unknown fsync policy " + string(e) + " (want always, interval or none)"
}

// Config parameterizes a durable-state Manager.
type Config struct {
	// Dir is the data directory; wal/ and checkpoints/ are created
	// beneath it.
	Dir string
	// SegmentSize rotates the active WAL segment once it exceeds this
	// many bytes. 0 selects 16 MiB.
	SegmentSize int64
	// Fsync is the WAL durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval.
	// 0 selects 100 ms.
	FsyncInterval time.Duration
	// KeepCheckpoints is how many recent checkpoint files survive each
	// new checkpoint (the newest is always kept). 0 selects 2.
	KeepCheckpoints int
	// Logf receives warnings (torn tails, corrupt records, truncation
	// failures). Nil selects the standard logger.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SegmentSize == 0 {
		c.SegmentSize = 16 << 20
	}
	if c.FsyncInterval == 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.KeepCheckpoints == 0 {
		c.KeepCheckpoints = 2
	}
	return c
}

// Metrics are optional telemetry handles mirrored by the Manager and the
// WAL. Any field may be nil; server.Telemetry.WirePersist fills them all.
type Metrics struct {
	// Appends counts WAL records written (turbo_wal_appends_total).
	Appends *telemetry.Counter
	// AppendErrors counts WAL writes that failed (the in-memory state
	// still advanced; durability was lost for those events).
	AppendErrors *telemetry.Counter
	// FsyncSeconds observes each WAL fsync (turbo_wal_fsync_seconds).
	FsyncSeconds *telemetry.Histogram
	// CheckpointSeconds observes each checkpoint's capture+write time
	// (turbo_checkpoint_seconds).
	CheckpointSeconds *telemetry.Histogram
	// Checkpoints counts checkpoints written; CheckpointErrors counts
	// failed attempts.
	Checkpoints      *telemetry.Counter
	CheckpointErrors *telemetry.Counter
	// Replayed counts events re-applied from the WAL during recovery
	// (turbo_recovery_replayed_events).
	Replayed *telemetry.Counter
	// CorruptRecords counts WAL records dropped as torn or corrupt.
	CorruptRecords *telemetry.Counter
	// TruncatedSegments counts WAL segments deleted after checkpoints.
	TruncatedSegments *telemetry.Counter
}

// The inc/add/observe helpers keep every metric optional.
func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func add(c *telemetry.Counter, n int64) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

func observe(h *telemetry.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d)
	}
}
