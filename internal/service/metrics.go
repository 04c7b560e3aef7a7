package service

import (
	"time"

	"coemu/internal/channel"
	"coemu/internal/core"
	"coemu/internal/metrics"
)

// Metrics instruments a Service with Prometheus-style metrics: latency
// histograms for the job pipeline (queue wait, engine run, sweep
// points, store I/O) and cumulative engine-protocol counters aggregated
// from every completed run's core.Stats. Construct one with NewMetrics
// and pass it via Options.Metrics; a nil *Metrics disables every
// observation at the cost of one pointer check per site.
//
// The service-wide lifecycle counters (Counters) are deliberately not
// duplicated here: the HTTP layer mirrors them into the same registry
// with a collect hook, so /v1/stats and /metrics always agree.
type Metrics struct {
	jobSeconds        *metrics.Histogram
	queueSeconds      *metrics.Histogram
	runQueueSeconds   *metrics.Histogram
	sweepPointSeconds *metrics.Histogram
	storeReadSeconds  *metrics.Histogram
	storeWriteSeconds *metrics.Histogram

	engineCommitted    *metrics.Counter
	engineConservative *metrics.Counter
	engineRunAhead     *metrics.Counter
	engineFollowUp     *metrics.Counter
	engineRollForth    *metrics.Counter
	engineBatched      *metrics.Counter
	engineTransitions  *metrics.Counter
	engineRollbacks    *metrics.Counter
	engineSnapshots    *metrics.Counter
	engineChecks       *metrics.Counter
	engineMispredicts  *metrics.Counter
	engineInjected     *metrics.Counter
	engineDeclines     *metrics.CounterVec
	rollbackDepth      *metrics.Histogram
	transitionLength   *metrics.Histogram
	channelAccesses    *metrics.CounterVec
	channelWords       *metrics.CounterVec
}

// latencyBuckets spans sub-millisecond cache hits to multi-second
// engine runs.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// storeBuckets spans the persistent store's file I/O latencies.
var storeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1, 0.5,
}

// cycleBuckets bins per-transition cycle counts (rollback depths,
// transition lengths), LOB-scaled: powers of two to one beyond the
// default depth.
var cycleBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewMetrics registers the service's instruments on reg and returns
// the handle to pass as Options.Metrics.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		jobSeconds: reg.NewHistogram("coemu_job_seconds",
			"Engine-run wall time per executed job.", latencyBuckets),
		queueSeconds: reg.NewHistogram("coemu_job_queue_seconds",
			"Time a job, run or sweep point, waited in its queue class before a worker picked it up.", latencyBuckets),
		runQueueSeconds: reg.NewHistogram("coemu_run_queue_seconds",
			"Time a run-class job (Submit, as /v1/run) waited in its queue class before a worker picked it up.", latencyBuckets),
		sweepPointSeconds: reg.NewHistogram("coemu_sweep_point_seconds",
			"Sweep point latency from submission to settlement.", latencyBuckets),
		storeReadSeconds: reg.NewHistogram("coemu_store_read_seconds",
			"Persistent store read (probe) latency.", storeBuckets),
		storeWriteSeconds: reg.NewHistogram("coemu_store_write_seconds",
			"Persistent store write-through latency.", storeBuckets),

		engineCommitted: reg.NewCounter("coemu_engine_committed_cycles_total",
			"Target cycles committed across completed runs."),
		engineConservative: reg.NewCounter("coemu_engine_conservative_cycles_total",
			"Conservatively synchronized cycles across completed runs."),
		engineRunAhead: reg.NewCounter("coemu_engine_run_ahead_cycles_total",
			"Leader cycles committed optimistically across completed runs."),
		engineFollowUp: reg.NewCounter("coemu_engine_follow_up_cycles_total",
			"Lagger follow-up replay cycles across completed runs."),
		engineRollForth: reg.NewCounter("coemu_engine_roll_forth_cycles_total",
			"Leader cycles re-executed after rollbacks across completed runs."),
		engineBatched: reg.NewCounter("coemu_engine_batched_cycles_total",
			"Domain cycles advanced through the predicted-quiescence fast path."),
		engineTransitions: reg.NewCounter("coemu_engine_transitions_total",
			"Optimistic transitions started across completed runs."),
		engineRollbacks: reg.NewCounter("coemu_engine_rollbacks_total",
			"Leader state restores after mispredictions across completed runs."),
		engineSnapshots: reg.NewCounter("coemu_engine_snapshots_total",
			"Rollback state stores captured across completed runs."),
		engineChecks: reg.NewCounter("coemu_engine_prediction_checks_total",
			"Predictions checked by laggers across completed runs."),
		engineMispredicts: reg.NewCounter("coemu_engine_mispredicts_total",
			"Failed prediction checks (organic plus injected) across completed runs."),
		engineInjected: reg.NewCounter("coemu_engine_injected_mispredicts_total",
			"Mispredictions forced by the accuracy fault injector."),
		engineDeclines: reg.NewCounterVec("coemu_engine_declines_total",
			"Predictor declines across completed runs, by reason.", "reason"),
		rollbackDepth: reg.NewHistogram("coemu_engine_rollback_depth_cycles",
			"Cycles discarded and replayed per rollback.", cycleBuckets),
		transitionLength: reg.NewHistogram("coemu_engine_transition_length_cycles",
			"Target cycles committed per optimistic transition.", cycleBuckets),
		channelAccesses: reg.NewCounterVec("coemu_channel_accesses_total",
			"Inter-domain channel accesses across completed runs, by direction.", "dir"),
		channelWords: reg.NewCounterVec("coemu_channel_words_total",
			"Inter-domain channel payload words across completed runs, by direction.", "dir"),
	}
}

// observeQueueWait records the queue dwell of one dequeued job, and
// again in the run histogram when the job came from the run class.
func (m *Metrics) observeQueueWait(d time.Duration, run bool) {
	if m == nil {
		return
	}
	m.queueSeconds.Observe(d.Seconds())
	if run {
		m.runQueueSeconds.Observe(d.Seconds())
	}
}

// observeJob records one executed job's engine-run wall time.
func (m *Metrics) observeJob(d time.Duration) {
	if m == nil {
		return
	}
	m.jobSeconds.Observe(d.Seconds())
}

// observeSweepPoint records one sweep point's submission-to-settle
// latency.
func (m *Metrics) observeSweepPoint(d time.Duration) {
	if m == nil {
		return
	}
	m.sweepPointSeconds.Observe(d.Seconds())
}

// observeStoreRead records one persistent-store probe's latency.
func (m *Metrics) observeStoreRead(d time.Duration) {
	if m == nil {
		return
	}
	m.storeReadSeconds.Observe(d.Seconds())
}

// observeStoreWrite records one persistent-store write-through's
// latency.
func (m *Metrics) observeStoreWrite(d time.Duration) {
	if m == nil {
		return
	}
	m.storeWriteSeconds.Observe(d.Seconds())
}

// channelDirNames renders channel directions as label values.
var channelDirNames = [2]string{channel.SimToAcc: "sim_to_acc", channel.AccToSim: "acc_to_sim"}

// observeReport folds one completed run's engine report into the
// cumulative protocol counters.
func (m *Metrics) observeReport(rep *core.Report) {
	if m == nil || rep == nil {
		return
	}
	st := rep.Stats
	m.engineCommitted.Add(st.Committed)
	m.engineConservative.Add(st.ConservativeCycles)
	m.engineRunAhead.Add(st.RunAheadCycles)
	m.engineFollowUp.Add(st.FollowUpCycles)
	m.engineRollForth.Add(st.RollForthCycles)
	m.engineBatched.Add(st.BatchedCycles)
	m.engineTransitions.Add(st.Transitions)
	m.engineRollbacks.Add(st.Rollbacks)
	m.engineSnapshots.Add(st.Stores)
	m.engineChecks.Add(st.ChecksTotal)
	m.engineMispredicts.Add(st.Mispredicts)
	m.engineInjected.Add(st.Injected)
	for reason, n := range st.Declines {
		m.engineDeclines.With(string(reason)).Add(n)
	}
	if rep.RollForthLengths != nil {
		rep.RollForthLengths.Each(func(v int, count int64) {
			m.rollbackDepth.ObserveN(float64(v), count)
		})
	}
	if rep.TransitionLengths != nil {
		rep.TransitionLengths.Each(func(v int, count int64) {
			m.transitionLength.ObserveN(float64(v), count)
		})
	}
	for dir, name := range channelDirNames {
		m.channelAccesses.With(name).Add(rep.Channel.Accesses[dir])
		m.channelWords.With(name).Add(rep.Channel.Words[dir])
	}
}
