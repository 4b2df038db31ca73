/**
 * @file
 * The asynchronous DataLoader (PyTorch torch.utils.data.DataLoader
 * analogue), faithfully reproducing the protocol of paper §II-B:
 *
 *  - the main process forks num_workers workers;
 *  - one index queue per worker (main -> worker) carries batch index
 *    lists, one shared data queue (workers -> main) carries
 *    preprocessed batches;
 *  - at epoch start the main process primes every worker's index
 *    queue with prefetch_factor batches, round-robin;
 *  - after consuming a batch it sends one new batch of indices to the
 *    worker that produced the consumed batch;
 *  - batches can arrive out of order on the shared data queue; the
 *    main process consumes strictly in order, pinning and caching
 *    early arrivals.
 *
 * LotusTrace instrumentation is built in at exactly the points the
 * paper identifies: fetch() in the worker loop ([T1]), the blocking
 * _get_data wait in next() ([T2], with the 1 µs out-of-order
 * sentinel), and batch consumption spans.
 */

#ifndef LOTUS_DATAFLOW_DATA_LOADER_H
#define LOTUS_DATAFLOW_DATA_LOADER_H

#include <condition_variable>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "dataflow/error_policy.h"
#include "dataflow/fetcher.h"
#include "metrics/metrics.h"
#include "service/transport.h"
#include "trace/logger.h"

namespace lotus::service {
class PreprocServer;
struct ClientState;
} // namespace lotus::service

namespace lotus::dataflow {

/**
 * How batches are divided among workers.
 *
 * kRoundRobin is the paper-faithful §II-B protocol (static
 * whole-batch assignment, one index queue per worker) and the default
 * — characterization runs must keep it to reproduce the paper's [T2]
 * behavior. kWorkStealing runs each epoch as the single tenant of a
 * private PreprocServer fleet (src/service/) of num_workers threads:
 * every batch decomposes into per-sample tasks that any idle worker
 * takes FIFO, so the fleet collaborates on a straggler's batch
 * instead of waiting behind it (see DESIGN.md §10). Batch contents
 * are bit-identical across both modes and num_workers=0 for the same
 * seed.
 */
enum class Schedule : std::uint8_t
{
    kRoundRobin,
    kWorkStealing,
};

/** Counter family for tasks stolen under Schedule::kWorkStealing —
 *  run by a fleet worker other than the one that decomposed their
 *  batch — exported per thief as {worker=N}. */
inline constexpr const char *kStealsMetric = "lotus_loader_steals_total";
/** Per-sample tasks executed under Schedule::kWorkStealing. */
inline constexpr const char *kTasksMetric = "lotus_loader_tasks_total";

/** Measured PMU totals over fetch spans (zero when the perf backend
 *  is unavailable — lotus_top then labels IPC "simulated/off"). */
inline constexpr const char *kPmuCyclesMetric = "lotus_pmu_cycles_total";
inline constexpr const char *kPmuInstructionsMetric =
    "lotus_pmu_instructions_total";
inline constexpr const char *kPmuLlcMissesMetric =
    "lotus_pmu_llc_misses_total";

/**
 * Decoded-sample caching mode (see cache/sample_cache.h). The cache
 * holds prefix-stage samples — decoded and carried through the
 * deterministic transform prefix — so warm epochs skip the Loader
 * (store read + decode) and re-run only the random suffix. Batches
 * stay bit-identical to uncached runs under every Schedule and
 * num_workers=0, because the per-(seed, epoch, sample) reseeding
 * contract means the skipped prefix never consumed rng draws. Only
 * engages for datasets that implement cacheableSplit(); others run
 * uncached (warned once).
 */
enum class CachePolicy : std::uint8_t
{
    kNone,
    /** In-memory only, bounded by cache_budget_bytes. */
    kMemory,
    /** kMemory plus write-through disk materialization: epoch 0
     *  spills prefix-stage samples under materialize_dir, later
     *  epochs (and evicted entries) mmap them back instead of
     *  re-decoding. Corrupt spill files degrade to re-decode. */
    kMaterialize,
};

struct DataLoaderOptions
{
    int batch_size = 1;
    /**
     * Preprocessing workers. 0 runs the loader synchronously: every
     * fetch happens in the calling thread inside next(), like
     * PyTorch's num_workers=0 (no queues, no [T2] wait records).
     */
    int num_workers = 1;
    /** Batches primed per worker at epoch start. */
    int prefetch_factor = 2;
    bool shuffle = false;
    std::uint64_t seed = 0;
    /** Copy batches into "pinned" host memory on the main process. */
    bool pin_memory = true;
    bool drop_last = true;
    /** Optional LotusTrace sink (null = uninstrumented run). */
    trace::TraceLogger *logger = nullptr;
    /**
     * What a recoverable sample error (corrupt blob, failed read)
     * does: kFail makes next() throw a LoaderError with the batch and
     * worker id, kSkip refills the batch slot from a spare index and
     * counts the drop, kRetry re-reads transient store errors before
     * failing. See dataflow/error_policy.h.
     */
    ErrorPolicy error_policy = ErrorPolicy::kFail;
    /** kRetry: attempts after the first failure before giving up. */
    int max_retries = 2;
    /** kSkip: replacement candidates tried per bad batch slot. */
    int max_refill_attempts = 8;
    /** Batch-to-worker scheduling mode (see Schedule). */
    Schedule schedule = Schedule::kRoundRobin;
    /** Decoded-sample caching mode (see CachePolicy). */
    CachePolicy cache_policy = CachePolicy::kNone;
    /** In-memory cache budget; must be > 0 when caching is on. */
    std::int64_t cache_budget_bytes = 0;
    /** Cache lock shards; must be > 0 when caching is on. */
    int cache_shards = 8;
    /** Spill directory for kMaterialize (created if absent; claimed
     *  exclusively — two live loaders sharing one dir is fatal). */
    std::string materialize_dir;
    /**
     * Asynchronous read-ahead window (see dataflow/read_ahead.h):
     * max store reads issued ahead of decode by dedicated I/O
     * threads. 0 disables; > 0 requires io_threads > 0 and a dataset
     * that exposes its store via blobStore() (others warn once and
     * run without). Batches are bit-identical on or off, under every
     * Schedule and num_workers=0.
     */
    int read_ahead_depth = 0;
    /** Dedicated read-ahead I/O threads; must be > 0 exactly when
     *  read_ahead_depth is. */
    int io_threads = 0;
};

/**
 * The subset of DataLoaderOptions that may change between epochs
 * without touching batch contents. Every knob here is content-neutral
 * under the per-(seed, epoch, sample) reseeding contract: workers,
 * prefetch, schedule, and read-ahead move *where and when* samples
 * are produced, never *what* a batch holds. batch_size/shuffle/seed
 * are deliberately absent — changing them changes the batch plan.
 * This is the unit a tuner decision carries (see tuner/tuner.h).
 */
struct LoaderReconfig
{
    int num_workers = 1;
    int prefetch_factor = 2;
    Schedule schedule = Schedule::kRoundRobin;
    /** 0 disables read-ahead; > 0 requires io_threads > 0. */
    int read_ahead_depth = 0;
    int io_threads = 0;

    bool operator==(const LoaderReconfig &other) const
    {
        return num_workers == other.num_workers &&
               prefetch_factor == other.prefetch_factor &&
               schedule == other.schedule &&
               read_ahead_depth == other.read_ahead_depth &&
               io_threads == other.io_threads;
    }
    bool operator!=(const LoaderReconfig &other) const
    {
        return !(*this == other);
    }
};

class DataLoader
{
  public:
    DataLoader(std::shared_ptr<const pipeline::Dataset> dataset,
               std::shared_ptr<const pipeline::Collate> collate,
               DataLoaderOptions options);
    ~DataLoader();

    DataLoader(const DataLoader &) = delete;
    DataLoader &operator=(const DataLoader &) = delete;

    /** Batches one epoch will produce. */
    std::int64_t numBatches() const;

    /**
     * Begin an epoch: spawn workers and prime index queues. Called
     * implicitly by the first next(); explicit restart supports
     * multi-epoch use.
     */
    void startEpoch();

    /**
     * Next in-order batch, or nullopt at epoch end (workers are then
     * joined). Blocks on the shared data queue as needed.
     *
     * Under ErrorPolicy::kFail (and exhausted kRetry/kSkip), a worker
     * that hit a bad sample surfaces here as a thrown LoaderError
     * carrying the failing batch id, worker id, and underlying Error;
     * the workers are shut down first, and the loader needs an
     * explicit startEpoch() to run again.
     */
    std::optional<pipeline::Batch> next();

    /**
     * Return a consumed batch's storage for reuse. In synchronous
     * mode (num_workers == 0) the next fetch collates directly into
     * the recycled tensor when shapes match, making steady-state
     * epochs allocation-free on the batch path. With workers the
     * tensor is simply released here and its pages recycle through
     * the worker-local buffer pools instead.
     */
    void recycle(pipeline::Batch &&batch);

    const DataLoaderOptions &options() const { return options_; }

    /** The tunable subset of the live options (see LoaderReconfig). */
    LoaderReconfig currentConfig() const;

    /**
     * Apply a tuner decision at an epoch boundary. Fatal mid-epoch
     * (between a startEpoch and the nullopt from next()): workers,
     * queues, and the read-ahead plan are per-epoch state, so the
     * loader refuses to mutate them while an epoch is in flight — the
     * reconfiguration safety contract (DESIGN.md §14). Revalidates
     * like the constructor, re-registers per-worker metrics, and
     * rebuilds or tears down the read-ahead engine as the depth
     * moves through 0. Batch contents are unaffected: every field of
     * LoaderReconfig is content-neutral by the reseeding contract.
     */
    void reconfigure(const LoaderReconfig &next);

    /**
     * Mark this loader as co-hosted with preprocessing service
     * @p service (PreprocServer::adoptLoader calls this). An attached
     * loader refuses fleet-level reconfiguration — num_workers and
     * schedule belong to the server's shared fleet, and a tuner
     * driving them per client would silently fight the server's
     * weighted-fair scheduler. Per-client knobs (prefetch_factor,
     * read_ahead_depth, io_threads) stay reconfigurable.
     */
    void attachToService(const std::string &service);

    /** The adopting service's name, or "" when standalone. */
    const std::string &attachedService() const
    {
        return attached_service_;
    }

    /** The decoded-sample cache, or null when cache_policy is kNone
     *  (or the dataset is not cacheable). For tests and benches. */
    const cache::SampleCache *cache() const { return cache_.get(); }

    /** The read-ahead engine, or null when read_ahead_depth is 0 (or
     *  the dataset exposes no blobStore()). For tests and benches. */
    const ReadAhead *readAhead() const { return read_ahead_.get(); }

    /** Main-process id used in trace records. */
    std::uint32_t mainPid() const { return main_pid_; }

    /** Worker process ids (valid after startEpoch). */
    std::vector<std::uint32_t> workerPids() const;

  private:
    void workerLoop(int worker_id);
    /** Schedule::kWorkStealing: start this epoch's private fleet and
     *  connect the loader as its only tenant. */
    void startFleet();
    void tryPutIndex(int worker_id);
    void pinBatch(pipeline::Batch &batch) const;
    /** Shut the epoch down and re-raise a worker's sample error. */
    [[noreturn]] void raiseWorkerError(service::BatchMsg msg);
    void shutdownWorkers();
    void rebuildBatches();
    void registerMetrics();
    /** (Re)build or tear down the read-ahead engine to match
     *  options_; no-op when the live engine already matches. */
    void rebuildReadAhead();
    std::optional<pipeline::Batch> nextSynchronous();

    /** Always-on telemetry handles (process-wide registry; recording
     *  is a no-op unless metrics::setEnabled(true) was called). */
    struct Metrics
    {
        metrics::Counter *batches_total = nullptr;
        metrics::Counter *ooo_batches_total = nullptr;
        metrics::Counter *wait_ns_total = nullptr;
        metrics::Histogram *wait_ns = nullptr;
        metrics::Gauge *data_queue_depth = nullptr;
        metrics::Gauge *pin_cache_size = nullptr;
        /** Indexed by worker id (one "main" entry when num_workers=0). */
        std::vector<metrics::Histogram *> fetch_ns;
        std::vector<metrics::Gauge *> index_queue_depth;
        /** Work-stealing telemetry: per-sample tasks executed, tasks
         *  stolen per thief, and first-task-to-collate batch span. */
        metrics::Counter *tasks_total = nullptr;
        std::vector<metrics::Counter *> steals;
        metrics::Histogram *batch_span_ns = nullptr;
        /** Measured per-thread PMU deltas summed over fetch spans
         *  (stay zero on the simulated backend). */
        PmuCounters pmu;
    };

    std::shared_ptr<const pipeline::Dataset> dataset_;
    Fetcher fetcher_;
    DataLoaderOptions options_;
    /** Non-empty once adopted by a PreprocServer (see
     *  attachToService): fleet-level reconfigure is then fatal. */
    std::string attached_service_;
    std::uint32_t main_pid_;
    /** Decoded-sample cache shared with fetcher_ (null = off). */
    std::shared_ptr<cache::SampleCache> cache_;
    /** Read-ahead engine shared with fetcher_ (null = off). */
    std::shared_ptr<ReadAhead> read_ahead_;

    std::vector<std::vector<std::int64_t>> batches_;

    // Per-epoch state.
    /** True from startEpoch until the next explicit startEpoch. */
    bool epoch_started_ = false;
    /** Epoch counter driving the per-epoch reshuffle. */
    std::int64_t epoch_ = 0;
    /** Round-robin: one index queue per worker. Work-stealing sends
     *  the same Submission messages to the fleet instead. */
    std::vector<std::unique_ptr<MpmcQueue<service::Submission>>>
        index_queues_;
    /** The shared data queue: the round-robin workers' queue, or the
     *  fleet tenant's transport under work-stealing. */
    std::shared_ptr<service::BatchTransport> data_queue_;
    std::vector<std::thread> workers_;
    std::vector<std::uint32_t> worker_pids_;
    mutable std::mutex worker_pids_mutex_;
    /** Signaled by each worker once it has announced its pid. */
    std::condition_variable worker_ready_cv_;

    std::int64_t send_idx_ = 0;
    std::int64_t rcvd_idx_ = 0;
    /** Early out-of-order arrivals (batches pinned; errors held until
     *  their turn so failures surface in batch order). */
    std::map<std::int64_t, service::BatchMsg> reorder_cache_;
    std::map<std::int64_t, int> batch_worker_;

    // Work-stealing state (null under kRoundRobin): the epoch's fleet
    // and the loader's tenant state on it.
    std::unique_ptr<service::PreprocServer> fleet_;
    std::shared_ptr<service::ClientState> tenant_;
    /** epochSeedBase(seed, epoch); drives per-sample RNG reseeding. */
    std::uint64_t epoch_seed_base_ = 0;

    /** Fetch rng for the synchronous (num_workers=0) path. */
    Rng sync_rng_{0};
    /** Recycled batch tensor donated to the next synchronous fetch. */
    tensor::Tensor spare_;
    Metrics metrics_;
};

} // namespace lotus::dataflow

#endif // LOTUS_DATAFLOW_DATA_LOADER_H
