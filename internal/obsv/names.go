package obsv

// The instrument table: every metric a Photon process exports, by name.
// Each Counter, Gauge, GaugeFunc and Histogram registration outside tests
// names one of these constants, and exactly one call site registers each,
// so every quantity is exported once, at its source. TestInstrumentTable
// enforces both rules over the module's source.
const (
	// Round telemetry, refreshed from each round record by the photon
	// Job API.
	MetricRoundsTotal     = "photon_rounds_total"
	MetricRound           = "photon_round"
	MetricTrainLoss       = "photon_train_loss"
	MetricValPerplexity   = "photon_val_perplexity"
	MetricRoundClients    = "photon_round_clients"
	MetricWireSentBytes   = "photon_wire_sent_bytes_total"
	MetricWireRecvBytes   = "photon_wire_recv_bytes_total"
	MetricRoundJoins      = "photon_round_joins_total"
	MetricRoundEvictions  = "photon_round_evictions_total"
	MetricRoundStragglers = "photon_round_stragglers_total"
	MetricRoundSeconds    = "photon_round_seconds"

	// Asynchronous (FedBuff-mode) aggregation, set by the aggregator.
	MetricAsyncFolds        = "photon_async_folds_total"
	MetricAsyncRejected     = "photon_async_rejected_total"
	MetricAsyncBufferFill   = "photon_async_buffer_fill"
	MetricAsyncStaleness    = "photon_async_staleness"
	MetricAsyncModelVersion = "photon_async_model_version"

	// Durable control plane failures that training survives.
	MetricRegistryErrors  = "photon_registry_errors_total"
	MetricCkptWriteErrors = "photon_ckpt_write_errors_total"

	// Serving engine.
	MetricServeQueueDepth = "photon_serve_queue_depth"
	MetricServeInflight   = "photon_serve_inflight_sequences"
	MetricServeRequestSec = "photon_serve_request_seconds"
	MetricServeCompleted  = "photon_serve_completed_total"
	MetricServeExpired    = "photon_serve_expired_total"
	MetricServeTokens     = "photon_serve_tokens_total"
)
