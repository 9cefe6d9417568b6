package photon

import (
	"photon/internal/metrics"
	"photon/internal/obsv"
)

// RoundEvent is one round's training telemetry: streamed live on
// Job.Events while a run is in progress, and collected in Result.Stats.
// It is the system's single round record; see the field docs for each
// quantity.
type RoundEvent = metrics.Round

// PhaseBreakdown is a round's per-phase wall time in milliseconds, split
// along the critical path: model broadcast, member local training, codec
// encode/decode (both sides), wire-transfer residual, aggregation, and
// evaluation. The breakdown follows the slowest member, so its sum
// (SumMs) approximates the round's measured wall time rather than a
// per-member total.
type PhaseBreakdown = obsv.Breakdown
