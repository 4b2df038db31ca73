/**
 * @file
 * Multi-tenant preprocessing service over the work-stealing substrate
 * (the tf.data-service direction, PAPERS.md arXiv:2101.12127) — and
 * the one per-sample execution engine: a Schedule::kWorkStealing
 * DataLoader runs its epochs as the single tenant of a private fleet.
 *
 * One PreprocServer owns one worker fleet; N concurrent training
 * clients (LoaderClient, src/service/loader_client.h) each bring
 * their own dataset view, seed, batch size, and ErrorPolicy, submit
 * per-sample tasks into per-client Chase–Lev deques, and stream built
 * batches back over a BatchTransport. The scheduler is weighted-fair:
 * victim selection orders clients by virtual time (executed service
 * nanoseconds / weight), so a heavy-tailed tenant self-penalizes
 * instead of inflating a light tenant's [T2] tail (the MinatoLoader
 * fast-lane motivation, arXiv:2509.10712). Admission control bounds
 * the client count and per-client in-flight samples; per-client
 * outbound queues are bounded by an admission rule rather than a
 * blocking push, so a slow consumer can never wedge a fleet worker.
 *
 * Determinism contract (DESIGN.md §15): every client's batches are
 * bit-identical to a solo DataLoader with the same config, because
 * the batch plan (sampler::epochBatchPlan), the per-epoch seed mix
 * (task_runner::epochSeedBase), the per-sample reseeding
 * (fetcher::sampleRngSeed via BatchBuild::seed_base), and the
 * retry/skip candidate walk (task_runner::resolveTask) are the same
 * code the solo loader runs.
 */

#ifndef LOTUS_SERVICE_PREPROC_SERVER_H
#define LOTUS_SERVICE_PREPROC_SERVER_H

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/data_loader.h"
#include "dataflow/error_policy.h"
#include "dataflow/fetcher.h"
#include "dataflow/work_queue.h"
#include "metrics/metrics.h"
#include "service/transport.h"

namespace lotus::service {

class LoaderClient;

/** Per-client task executions, exported as {client=N}. */
inline constexpr const char *kServiceTasksMetric =
    "lotus_service_tasks_total";
/** Per-client batches shipped, exported as {client=N}. */
inline constexpr const char *kServiceBatchesMetric =
    "lotus_service_batches_total";
/** Per-client [T2] wait (client blocked in next()), {client=N}. */
inline constexpr const char *kServiceWaitNsMetric =
    "lotus_service_wait_ns";
/** Per-client outbound (built, unconsumed) batch backlog, {client=N}. */
inline constexpr const char *kServiceQueueDepthMetric =
    "lotus_service_queue_depth";
/** Per-client decomposed-but-unfinished samples, {client=N}. */
inline constexpr const char *kServiceInflightMetric =
    "lotus_service_inflight_samples";
/** Live (connected) clients. */
inline constexpr const char *kServiceClientsMetric =
    "lotus_service_clients";
/** Connections refused by admission control. */
inline constexpr const char *kServiceRejectedMetric =
    "lotus_service_rejected_total";

struct ServerOptions
{
    /** Shared fleet size; every client's tasks run on these. */
    int num_workers = 4;
    /** Admission control: connect() past this count is refused. */
    int max_clients = 8;
    /**
     * Admission control: a client's next batch is not decomposed
     * while its in-flight samples would exceed this. One batch is
     * always admitted even if larger, so a batch bigger than the cap
     * degrades to serial batches instead of deadlocking.
     */
    std::int64_t max_inflight_samples = 256;
    /**
     * Per-client backpressure: in-flight builds plus unconsumed
     * outbound batches never exceed this, enforced at decompose time
     * so completion's transport send can never block a worker.
     */
    int outbound_capacity = 4;
    /** Name reported by adopted loaders' reconfigure guard. */
    std::string name = "preproc";
};

/** One client's loader-equivalent configuration (the solo-DataLoader
 *  fields that define its batch plan and sample contents, plus the
 *  service-only weight and pacing knobs). */
struct ClientConfig
{
    int batch_size = 1;
    bool shuffle = false;
    std::uint64_t seed = 0;
    bool drop_last = true;
    dataflow::ErrorPolicy error_policy = dataflow::ErrorPolicy::kFail;
    /** kRetry: attempts after the first failure before giving up. */
    int max_retries = 2;
    /** kSkip: replacement candidates tried per bad batch slot. */
    int max_refill_attempts = 8;
    /**
     * Weighted-fair share. Victim selection orders clients by
     * service_ns / weight, so a weight-2 client receives twice the
     * fleet time of a weight-1 client under contention.
     */
    double weight = 1.0;
    /** Batches this client keeps submitted ahead of consumption (the
     *  per-client analogue of prefetch_factor; tunable per client). */
    int prefetch_batches = 2;
    /** Optional LotusTrace sink for this client's task spans. */
    trace::TraceLogger *logger = nullptr;
};

/**
 * Where the fleet records one tenant's execution telemetry. connect()
 * points the per-client handles at the lotus_service_* families; a
 * DataLoader's private fleet points them at its lotus_loader_*
 * families and fills the per-worker ones, so a solo loader exports
 * loader series and no service series. Null handles and empty
 * per-worker vectors are not recorded.
 */
struct TenantMetrics
{
    /** Task executions (retries and refills included). */
    metrics::Counter *tasks = nullptr;
    /** Built batches shipped. */
    metrics::Counter *batches = nullptr;
    /** Shipped-but-unreceived batches: +1 per send, -1 per receive. */
    metrics::Gauge *queue_depth = nullptr;
    /** Decomposed-but-unfinished samples. */
    metrics::Gauge *inflight = nullptr;
    /** [T2] wait, recorded client-side by LoaderClient::next(). */
    metrics::Histogram *wait_ns = nullptr;
    /** Decompose-to-ship span of every built batch. */
    metrics::Histogram *batch_span_ns = nullptr;
    /** Per fleet worker: fetch latency, and tasks it ran for a batch
     *  another worker decomposed (steals). */
    std::vector<metrics::Histogram *> fetch_ns;
    std::vector<metrics::Counter *> steals;
    /** Measured PMU deltas over fetch spans. */
    trace::PmuCounters pmu;
};

/**
 * Server-side per-client state. Tasks live in one TaskDeque per
 * client that fleet workers consume exclusively through steal() (any
 * thread); pushes — decompose and retry/skip requeue — serialize on
 * push_mutex, whose holder plays the Chase–Lev owner role.
 */
struct ClientState
{
    ClientState(std::int64_t client_id, dataflow::Fetcher fetcher_in,
                const ClientConfig &config_in, TenantMetrics metrics_in)
        : id(client_id), config(config_in), fetcher(std::move(fetcher_in)),
          errors{config_in.error_policy, config_in.max_retries,
                 config_in.max_refill_attempts},
          metrics(std::move(metrics_in)),
          transport(std::make_shared<QueueTransport>())
    {
    }

    const std::int64_t id;
    const ClientConfig config;
    /** The tenant's fetch path (dataset, collate, and any cache or
     *  read-ahead engine its owner attached). */
    const dataflow::Fetcher fetcher;
    const dataflow::ErrorHandling errors;
    const TenantMetrics metrics;

    dataflow::TaskDeque deque;
    /** Serializes owner-role deque pushes (decompose / requeue). */
    std::mutex push_mutex;
    MpmcQueue<Submission> pending;

    std::atomic<std::int64_t> inflight_samples{0};
    std::atomic<std::int64_t> peak_inflight{0};
    std::atomic<int> inflight_builds{0};
    /** Weighted-fair numerator: executed fetch nanoseconds. */
    std::atomic<std::uint64_t> service_ns{0};
    /** Epoch incarnation; bumped by startEpoch / disconnect. */
    std::atomic<std::uint64_t> generation{0};
    std::atomic<bool> disconnected{false};

    std::atomic<std::uint64_t> executed_tasks{0};
    std::atomic<std::uint64_t> dropped_tasks{0};
    std::atomic<std::uint64_t> shipped_batches{0};

    const std::shared_ptr<BatchTransport> transport;

    /** In-flight builds; an entry is erased by the completing worker
     *  (after the last slot resolves no task pointer survives). */
    std::mutex builds_mutex;
    std::vector<std::unique_ptr<dataflow::BatchBuild>> builds;

    /** Virtual time: lower runs first. Relaxed reads — fairness is a
     *  scheduling heuristic, not a correctness edge. */
    double
    vtime() const
    {
        return static_cast<double>(
                   service_ns.load(std::memory_order_relaxed)) /
               config.weight;
    }
};

/** Point-in-time per-client accounting (tests, benches, lotus_top). */
struct ClientStats
{
    std::int64_t id = -1;
    double weight = 1.0;
    std::uint64_t executed_tasks = 0;
    std::uint64_t dropped_tasks = 0;
    std::uint64_t shipped_batches = 0;
    std::int64_t inflight_samples = 0;
    std::int64_t peak_inflight_samples = 0;
    std::uint64_t service_ns = 0;
    bool disconnected = false;
};

struct ServerStats
{
    int live_clients = 0;
    std::uint64_t rejected_connects = 0;
    /** Samples canceled across all clients ever (canceled epochs /
     *  disconnects) — stale tasks drained as no-ops plus submissions
     *  discarded before decomposition; survives client reaping. */
    std::uint64_t dropped_tasks = 0;
    std::vector<ClientStats> clients;
};

class PreprocServer
{
  public:
    explicit PreprocServer(ServerOptions options);

    /** Fatal with clients still connected — destroy every
     *  LoaderClient first (they disconnect in their destructors). */
    ~PreprocServer();

    PreprocServer(const PreprocServer &) = delete;
    PreprocServer &operator=(const PreprocServer &) = delete;

    /**
     * Admit a new client. Refused with a recoverable Error when the
     * config is invalid (kInvalidArgument) or max_clients are
     * connected (kRejected, counted in lotus_service_rejected_total);
     * a refusal leaves every connected tenant untouched. The returned
     * handle disconnects on destruction and must not outlive the
     * server.
     */
    Result<std::shared_ptr<LoaderClient>>
    connect(std::shared_ptr<const pipeline::Dataset> dataset,
            std::shared_ptr<const pipeline::Collate> collate,
            ClientConfig config);

    /**
     * Guard-rail registration for a DataLoader co-hosted with this
     * server's fleet: marks the loader so fleet-level reconfigure()
     * calls (num_workers / schedule) become fatal instead of silently
     * fighting the shared fleet (see DataLoader::attachToService).
     */
    void
    adoptLoader(dataflow::DataLoader &loader) const
    {
        loader.attachToService(options_.name);
    }

    ServerStats stats() const;

    const ServerOptions &options() const { return options_; }

  private:
    friend class LoaderClient;
    /** Runs Schedule::kWorkStealing epochs on a private fleet. */
    friend class dataflow::DataLoader;

    /**
     * Admit the single tenant of a DataLoader's private fleet: no
     * admission check, no lotus_service_* series (those register with
     * the first connect()), and the caller's fetcher and telemetry.
     */
    std::shared_ptr<ClientState> connectLoader(dataflow::Fetcher fetcher,
                                               const ClientConfig &config,
                                               TenantMetrics metrics);

    /** Fleet thread ids, in worker order; blocks until every worker
     *  has started. */
    std::vector<std::uint32_t> workerTids();

    void workerLoop(int worker_id);
    /** Steal one task from the min-vtime client with work; true when
     *  a task ran. */
    bool runOneTask(int worker_id, pipeline::PipelineContext &ctx,
                    Rng &rng);
    /** Decompose the min-vtime admissible pending submission; true
     *  when one was decomposed. */
    bool tryDecompose(int worker_id);
    /** Admission rule for decomposing @p client's next batch. */
    bool admissible(const ClientState &client) const;
    void decompose(ClientState &client, Submission submission,
                   int worker_id);
    void executeTask(ClientState &client, dataflow::SampleTask *task,
                     int worker_id, pipeline::PipelineContext &ctx,
                     Rng &rng);
    /** Last-finisher path: collate and ship, or drop a canceled
     *  build; frees the build and the in-flight budget either way. */
    void finishBatch(ClientState &client, dataflow::BatchBuild &build,
                     int worker_id, pipeline::PipelineContext &ctx);

    /** Discard @p client's undecomposed submissions, counting their
     *  samples as dropped (canceled-epoch accounting stays complete
     *  whether or not decomposition got to a batch). */
    void drainPending(ClientState &client);
    /** Count @p samples canceled before they ran. */
    void noteDropped(ClientState &client, std::uint64_t samples);

    /** Client-side entry points (via LoaderClient). */
    void submit(ClientState &client, Submission submission);
    /** Cancel outstanding work and open the next epoch incarnation;
     *  returns the new generation. */
    std::uint64_t beginEpoch(ClientState &client);
    void disconnect(const std::shared_ptr<ClientState> &client);

    /** Clients in victim order: disconnected first (their drain is
     *  cheap), then ascending vtime, then id. Keys are read once per
     *  client before sorting — workers move them concurrently. */
    std::vector<std::shared_ptr<ClientState>> clientsByVtime() const;
    /** Drop fully-drained disconnected clients from the roster. */
    void reapDisconnected();

    const ServerOptions options_;

    mutable std::mutex clients_mutex_;
    std::vector<std::shared_ptr<ClientState>> clients_;
    std::int64_t next_client_id_ = 0;
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> total_dropped_{0};

    dataflow::WorkSignal signal_;
    std::atomic<bool> shutdown_{false};
    std::vector<std::thread> workers_;
    /** Written by each worker before it counts down workers_started_. */
    std::vector<std::uint32_t> worker_tids_;
    std::latch workers_started_;

    /** Registered by the first connect() (guarded by clients_mutex_). */
    metrics::Gauge *clients_metric_ = nullptr;
    metrics::Counter *rejected_metric_ = nullptr;
};

} // namespace lotus::service

#endif // LOTUS_SERVICE_PREPROC_SERVER_H
