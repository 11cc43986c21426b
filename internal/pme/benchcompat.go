package pme

import (
	"time"

	"yourandvalue/internal/obs"
)

// The removed cross-request batcher's API. The pmebench module compiles
// against these names; none of them has any effect.

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
type (
	CoreOption    func(*Core)
	Batcher       struct{}
	BatcherConfig struct {
		MaxBatch int
		MaxWait  time.Duration
	}
)

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
const (
	DefaultBatchMaxRows = 256
	DefaultBatchWindow  = 250 * time.Microsecond
)

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
var FlushReasons []string

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
func WithBatcher(BatcherConfig) CoreOption { return func(*Core) {} }

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
func (c *Core) Batcher() *Batcher { return nil }

// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
func InstrumentBatcher(*obs.Registry, *Batcher) {}
