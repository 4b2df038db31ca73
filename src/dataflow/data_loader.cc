#include "dataflow/data_loader.h"

#include <limits>

#include "common/strings.h"
#include "common/thread_util.h"
#include "dataflow/sampler.h"
#include "dataflow/task_runner.h"
#include "hwcount/thread_counters.h"
#include "service/preproc_server.h"

namespace lotus::dataflow {

using pipeline::Batch;

namespace {

/**
 * Option validation is a user-facing contract (fatal, not panic):
 * bad configs must fail loudly at construction — and now also at
 * reconfigure(), which funnels through the same checks — never
 * half-run.
 */
void
validateOptions(const DataLoaderOptions &options)
{
    if (options.batch_size <= 0)
        LOTUS_FATAL("DataLoaderOptions: batch_size must be > 0 (got %d)",
                    options.batch_size);
    if (options.num_workers < 0)
        LOTUS_FATAL("DataLoaderOptions: num_workers must be >= 0 (got %d)",
                    options.num_workers);
    if (options.prefetch_factor < 1)
        LOTUS_FATAL(
            "DataLoaderOptions: prefetch_factor must be >= 1 (got %d)",
            options.prefetch_factor);
    if (options.max_retries < 0)
        LOTUS_FATAL("DataLoaderOptions: max_retries must be >= 0 (got %d)",
                    options.max_retries);
    if (options.max_refill_attempts < 0)
        LOTUS_FATAL(
            "DataLoaderOptions: max_refill_attempts must be >= 0 (got %d)",
            options.max_refill_attempts);
    // The priming budget prefetch_factor * num_workers must stay an
    // int: overflow used to wrap silently and prime nothing (or spin
    // the epoch-start loop for minutes). Huge-but-valid factors are
    // fine — startEpoch caps the priming rounds at numBatches().
    if (static_cast<std::int64_t>(options.prefetch_factor) *
            std::max(options.num_workers, 1) >
        std::numeric_limits<int>::max())
        LOTUS_FATAL("DataLoaderOptions: prefetch_factor x num_workers "
                    "overflows (%d x %d)",
                    options.prefetch_factor, options.num_workers);
    if (options.cache_policy != CachePolicy::kNone) {
        if (options.cache_budget_bytes <= 0)
            LOTUS_FATAL("DataLoaderOptions: cache_budget_bytes must be "
                        "> 0 when caching (got %lld)",
                        static_cast<long long>(options.cache_budget_bytes));
        if (options.cache_shards <= 0)
            LOTUS_FATAL(
                "DataLoaderOptions: cache_shards must be > 0 (got %d)",
                options.cache_shards);
    }
    if (options.cache_policy == CachePolicy::kMaterialize &&
        options.materialize_dir.empty())
        LOTUS_FATAL("DataLoaderOptions: CachePolicy::kMaterialize needs "
                    "a materialize_dir");
    if (options.cache_policy != CachePolicy::kMaterialize &&
        !options.materialize_dir.empty())
        LOTUS_FATAL("DataLoaderOptions: materialize_dir is set but "
                    "cache_policy is not kMaterialize");
    if (options.read_ahead_depth < 0)
        LOTUS_FATAL(
            "DataLoaderOptions: read_ahead_depth must be >= 0 (got %d)",
            options.read_ahead_depth);
    if (options.io_threads < 0)
        LOTUS_FATAL("DataLoaderOptions: io_threads must be >= 0 (got %d)",
                    options.io_threads);
    if ((options.read_ahead_depth > 0) != (options.io_threads > 0))
        LOTUS_FATAL("DataLoaderOptions: read_ahead_depth and io_threads "
                    "must be enabled together (got %d and %d)",
                    options.read_ahead_depth, options.io_threads);
}

} // namespace

DataLoader::DataLoader(std::shared_ptr<const pipeline::Dataset> dataset,
                       std::shared_ptr<const pipeline::Collate> collate,
                       DataLoaderOptions options)
    : dataset_(dataset), fetcher_(std::move(dataset), std::move(collate)),
      options_(options), main_pid_(currentTid())
{
    validateOptions(options_);
    if (options_.cache_policy != CachePolicy::kNone) {
        cache::CacheConfig config;
        config.budget_bytes = options_.cache_budget_bytes;
        config.shards = options_.cache_shards;
        if (options_.cache_policy == CachePolicy::kMaterialize) {
            const auto split = dataset_->cacheableSplit();
            config.materialize_dir = options_.materialize_dir;
            config.fingerprint =
                split.has_value() ? split->prefix_fingerprint : 0;
        }
        // Directory collisions between live loaders are fatal inside
        // MaterializeStore's claim, i.e. right here at construction.
        cache_ = std::make_shared<cache::SampleCache>(config);
        fetcher_.setCache(cache_);
    }
    rebuildReadAhead();
    registerMetrics();
    rebuildBatches();
}

void
DataLoader::rebuildReadAhead()
{
    if (options_.read_ahead_depth <= 0) {
        if (read_ahead_ != nullptr) {
            read_ahead_.reset();
            fetcher_.setReadAhead(nullptr);
        }
        return;
    }
    const pipeline::BlobStore *store = dataset_->blobStore();
    if (store == nullptr) {
        LOTUS_WARN("read_ahead_depth set but the dataset exposes no "
                   "blobStore(); running without read-ahead");
        return;
    }
    if (read_ahead_ != nullptr &&
        read_ahead_->options().depth == options_.read_ahead_depth &&
        read_ahead_->options().io_threads == options_.io_threads)
        return;
    ReadAheadOptions ra;
    ra.depth = options_.read_ahead_depth;
    ra.io_threads = options_.io_threads;
    // Build the replacement first, then swap: the fetcher's pointer is
    // never left dangling, and the old engine joins its I/O threads
    // when the last reference drops.
    read_ahead_ = std::make_shared<ReadAhead>(store, ra);
    fetcher_.setReadAhead(read_ahead_);
}

LoaderReconfig
DataLoader::currentConfig() const
{
    LoaderReconfig config;
    config.num_workers = options_.num_workers;
    config.prefetch_factor = options_.prefetch_factor;
    config.schedule = options_.schedule;
    config.read_ahead_depth = options_.read_ahead_depth;
    config.io_threads = options_.io_threads;
    return config;
}

void
DataLoader::reconfigure(const LoaderReconfig &next)
{
    // Workers, queues, and the read-ahead plan are all per-epoch
    // state; swapping them under a live epoch would orphan in-flight
    // batches. Epoch boundaries only (DESIGN.md §14).
    if (epoch_started_ && rcvd_idx_ < numBatches())
        LOTUS_FATAL("DataLoader::reconfigure: epoch %lld still in "
                    "flight (batch %lld of %lld); reconfiguration is "
                    "epoch-boundary only",
                    static_cast<long long>(epoch_),
                    static_cast<long long>(rcvd_idx_),
                    static_cast<long long>(numBatches()));
    // A loader co-hosted with a PreprocServer does not own the worker
    // fleet: a tuner decision that resizes or reschedules it would
    // silently fight the server's weighted-fair scheduler. Per-client
    // knobs (prefetch, read-ahead) stay tunable.
    if (!attached_service_.empty() &&
        (next.num_workers != options_.num_workers ||
         next.schedule != options_.schedule))
        LOTUS_FATAL(
            "DataLoader::reconfigure: this loader is attached to "
            "preprocessing service '%s', which owns the shared worker "
            "fleet; fleet-level knobs (num_workers %d->%d, schedule "
            "%d->%d) must be changed on the server, not per client — "
            "only prefetch_factor, read_ahead_depth, and io_threads "
            "may change here",
            attached_service_.c_str(), options_.num_workers,
            next.num_workers, static_cast<int>(options_.schedule),
            static_cast<int>(next.schedule));
    DataLoaderOptions candidate = options_;
    candidate.num_workers = next.num_workers;
    candidate.prefetch_factor = next.prefetch_factor;
    candidate.schedule = next.schedule;
    candidate.read_ahead_depth = next.read_ahead_depth;
    candidate.io_threads = next.io_threads;
    validateOptions(candidate);
    shutdownWorkers();
    const bool workers_changed =
        candidate.num_workers != options_.num_workers;
    options_ = candidate;
    if (workers_changed)
        registerMetrics();
    rebuildReadAhead();
}

void
DataLoader::registerMetrics()
{
    // Re-entrant: reconfigure() re-runs this when the worker count
    // changes, so the per-worker vectors must rebuild, not append.
    metrics_.fetch_ns.clear();
    metrics_.index_queue_depth.clear();
    metrics_.steals.clear();
    auto &registry = metrics::MetricsRegistry::instance();
    metrics_.batches_total = registry.counter("lotus_loader_batches_total");
    metrics_.ooo_batches_total =
        registry.counter("lotus_loader_ooo_batches_total");
    metrics_.wait_ns_total = registry.counter("lotus_loader_wait_ns_total");
    metrics_.wait_ns = registry.histogram("lotus_loader_wait_ns");
    metrics_.data_queue_depth =
        registry.gauge("lotus_loader_data_queue_depth");
    metrics_.pin_cache_size =
        registry.gauge("lotus_loader_pin_cache_size");
    // Work-stealing telemetry. tasks/batch-span register in every
    // mode (they just stay untouched under round-robin) so dashboards
    // can diff schedules without conditional queries.
    metrics_.tasks_total = registry.counter(kTasksMetric);
    metrics_.batch_span_ns =
        registry.histogram("lotus_loader_batch_span_ns");
    // Measured PMU totals. Registered unconditionally; they only move
    // when the ThreadCounterRegistry resolved to the perf backend.
    metrics_.pmu = {registry.counter(kPmuCyclesMetric),
                    registry.counter(kPmuInstructionsMetric),
                    registry.counter(kPmuLlcMissesMetric)};
    if (options_.num_workers == 0) {
        metrics_.fetch_ns.push_back(registry.histogram(
            metrics::labeled("lotus_loader_fetch_ns", "worker", "main")));
        return;
    }
    for (int w = 0; w < options_.num_workers; ++w) {
        const std::string id = strFormat("%d", w);
        metrics_.fetch_ns.push_back(registry.histogram(
            metrics::labeled("lotus_loader_fetch_ns", "worker", id)));
        metrics_.index_queue_depth.push_back(registry.gauge(
            metrics::labeled("lotus_loader_index_queue_depth", "worker",
                             id)));
        metrics_.steals.push_back(registry.counter(
            metrics::labeled(kStealsMetric, "worker", id)));
    }
}

void
DataLoader::rebuildBatches()
{
    batches_ = epochBatchPlan(dataset_->size(), options_.batch_size,
                              options_.shuffle, options_.drop_last,
                              options_.seed, epoch_);
}

void
DataLoader::attachToService(const std::string &service)
{
    attached_service_ = service;
}

DataLoader::~DataLoader()
{
    shutdownWorkers();
}

std::int64_t
DataLoader::numBatches() const
{
    return static_cast<std::int64_t>(batches_.size());
}

void
DataLoader::startEpoch()
{
    shutdownWorkers();

    if (epoch_started_) {
        ++epoch_;
        rebuildBatches();
    }
    send_idx_ = 0;
    rcvd_idx_ = 0;
    reorder_cache_.clear();
    batch_worker_.clear();
    epoch_seed_base_ = epochSeedBase(options_.seed, epoch_);

    if (read_ahead_ != nullptr) {
        // Arm the I/O threads with this epoch's reads in fetch order,
        // each carrying its (batch, sample) trace correlation, and
        // with the cache's residency check so they skip warm samples.
        // This covers every fetch path — the synchronous loader
        // included.
        std::vector<pipeline::BlobReadRequest> plan;
        for (std::size_t b = 0; b < batches_.size(); ++b) {
            for (const std::int64_t index : batches_[b]) {
                pipeline::BlobReadRequest request;
                request.index = index;
                request.batch_id = static_cast<std::int64_t>(b);
                request.sample_index = index;
                plan.push_back(request);
            }
        }
        read_ahead_->startEpoch(std::move(plan), options_.logger,
                                fetcher_.residentCheck());
    }

    index_queues_.clear();
    if (options_.num_workers == 0) {
        // Synchronous mode: no queues or workers; fetches reseed per
        // sample from epoch_seed_base_, so this object only provides
        // the storage the context points at.
        sync_rng_ = Rng(epoch_seed_base_);
        // The main thread does the fetching, so it carries the
        // counter group (no-op unless PMU attribution is enabled).
        hwcount::ThreadCounterRegistry::instance().attachCurrentThread();
    } else if (options_.schedule == Schedule::kWorkStealing) {
        startFleet();
    } else {
        data_queue_ = std::make_shared<service::QueueTransport>();
        for (int w = 0; w < options_.num_workers; ++w)
            index_queues_.push_back(
                std::make_unique<MpmcQueue<service::Submission>>());
        {
            std::lock_guard lock(worker_pids_mutex_);
            worker_pids_.assign(
                static_cast<std::size_t>(options_.num_workers), 0);
        }
        for (int w = 0; w < options_.num_workers; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });

        // Wait for every worker to announce its pid so trace records
        // and workerPids() are complete from the first batch on.
        std::unique_lock lock(worker_pids_mutex_);
        worker_ready_cv_.wait(lock, [this] {
            for (const auto pid : worker_pids_) {
                if (pid == 0)
                    return false;
            }
            return true;
        });
    }

    // Prime every worker's index queue with prefetch_factor batches,
    // round-robin across workers (paper §II-B; nothing to prime in
    // synchronous mode). Rounds are capped at numBatches(): beyond
    // that every tryPutIndex is a no-op, and an uncapped loop with a
    // huge (valid) prefetch_factor would spin here for
    // prefetch_factor x num_workers iterations.
    const std::int64_t rounds = std::min<std::int64_t>(
        options_.prefetch_factor, numBatches());
    for (std::int64_t round = 0; round < rounds; ++round) {
        for (int w = 0; w < options_.num_workers; ++w)
            tryPutIndex(w);
    }
    if (options_.logger)
        options_.logger->instant({.kind = trace::RecordKind::EpochBoundary,
                                  .pid = main_pid_,
                                  .op_name = "epoch_start"});
    epoch_started_ = true;
}

void
DataLoader::startFleet()
{
    // The fleet's admission rules are sized to the epoch's in-flight
    // window — the prefetch_factor x num_workers batches startEpoch
    // primes and next() keeps topped up — so they never bind.
    const int window = options_.prefetch_factor * options_.num_workers;
    service::ServerOptions fleet;
    fleet.num_workers = options_.num_workers;
    fleet.max_clients = 1;
    fleet.max_inflight_samples =
        static_cast<std::int64_t>(window) * options_.batch_size;
    fleet.outbound_capacity = window;
    // The loader keeps the batch plan and pacing; the fleet needs only
    // what executing and assembling a batch reads.
    service::ClientConfig tenant;
    tenant.batch_size = options_.batch_size;
    tenant.error_policy = options_.error_policy;
    tenant.max_retries = options_.max_retries;
    tenant.max_refill_attempts = options_.max_refill_attempts;
    tenant.logger = options_.logger;
    service::TenantMetrics telemetry;
    telemetry.tasks = metrics_.tasks_total;
    telemetry.queue_depth = metrics_.data_queue_depth;
    telemetry.batch_span_ns = metrics_.batch_span_ns;
    telemetry.fetch_ns = metrics_.fetch_ns;
    telemetry.steals = metrics_.steals;
    telemetry.pmu = metrics_.pmu;

    fleet_ = std::make_unique<service::PreprocServer>(fleet);
    // The tenant's fetcher is a copy of ours: same dataset, collate,
    // decoded-sample cache, and read-ahead engine.
    tenant_ = fleet_->connectLoader(fetcher_, tenant, std::move(telemetry));
    data_queue_ = tenant_->transport;
    std::lock_guard lock(worker_pids_mutex_);
    worker_pids_ = fleet_->workerTids();
}

void
DataLoader::tryPutIndex(int worker_id)
{
    if (send_idx_ >= numBatches())
        return;
    service::Submission msg;
    msg.batch_id = send_idx_;
    msg.indices = batches_[static_cast<std::size_t>(send_idx_)];
    msg.seed_base = epoch_seed_base_;
    batch_worker_[send_idx_] = worker_id;
    ++send_idx_;
    if (tenant_ != nullptr) {
        // Work-stealing: any fleet worker may decompose the batch;
        // worker_id only carries the consume-one/send-one credit.
        fleet_->submit(*tenant_, std::move(msg));
        return;
    }
    const auto queue = static_cast<std::size_t>(worker_id);
    index_queues_[queue]->push(std::move(msg));
    metrics_.index_queue_depth[queue]->add(1);
}

void
DataLoader::workerLoop(int worker_id)
{
    setCurrentThreadName(strFormat("loader-%d", worker_id));
    const std::uint32_t pid = currentTid();
    {
        std::lock_guard lock(worker_pids_mutex_);
        worker_pids_[static_cast<std::size_t>(worker_id)] = pid;
    }
    worker_ready_cv_.notify_one();
    // Per-worker counter group (no-op unless the ThreadCounterRegistry
    // is enabled and resolved to the perf backend).
    hwcount::ThreadCounterRegistry::instance().attachCurrentThread();
    // epoch_seed_base_ is stable while workers run: startEpoch joins
    // every worker before recomputing it. The rng object is just the
    // storage ctx points at — every sample attempt reseeds it.
    Rng rng(epoch_seed_base_);
    const FetchSeeding seeding{/*per_sample=*/true, epoch_seed_base_};
    const ErrorHandling errors{options_.error_policy, options_.max_retries,
                               options_.max_refill_attempts};

    auto &index_queue = *index_queues_[static_cast<std::size_t>(worker_id)];
    auto *fetch_hist =
        metrics_.fetch_ns[static_cast<std::size_t>(worker_id)];
    for (;;) {
        auto msg = index_queue.pop();
        if (!msg.has_value())
            break; // queue closed: epoch over
        metrics_
            .index_queue_depth[static_cast<std::size_t>(worker_id)]
            ->sub(1);

        pipeline::PipelineContext ctx;
        ctx.logger = options_.logger;
        ctx.pid = pid;
        ctx.rng = &rng;

        // [T1]: the fetch() call inside the worker loop.
        trace::Span span({.logger = options_.logger,
                          .kind = trace::RecordKind::BatchPreprocessed,
                          .batch_id = msg->batch_id, .pid = pid,
                          .histogram = fetch_hist, .pmu = &metrics_.pmu});
        Result<Batch> batch = fetcher_.tryFetch(msg->batch_id, msg->indices,
                                                ctx, errors, {}, seeding);
        span.finish();
        service::BatchMsg out;
        out.batch_id = msg->batch_id;
        out.worker_id = worker_id;
        // A failed batch still flows through the data queue (not a
        // silent worker death): the consumer re-raises it in batch
        // order as a LoaderError.
        if (batch.ok())
            out.batch = batch.take();
        else
            out.error = batch.takeError();

        data_queue_->send(std::move(out));
        metrics_.data_queue_depth->add(1);
    }
    hwcount::ThreadCounterRegistry::instance().detachCurrentThread();
}

void
DataLoader::pinBatch(Batch &batch) const
{
    if (!options_.pin_memory || batch.data.empty())
        return;
    hwcount::KernelScope scope(hwcount::KernelId::PinMemoryCopy);
    batch.data = batch.data.clone();
    scope.stats().bytes_read += batch.data.byteSize();
    scope.stats().bytes_written += batch.data.byteSize();
    scope.stats().items += 1;
}

std::optional<Batch>
DataLoader::nextSynchronous()
{
    if (rcvd_idx_ >= numBatches())
        return std::nullopt;
    const std::int64_t wanted = rcvd_idx_;

    pipeline::PipelineContext ctx;
    ctx.logger = options_.logger;
    ctx.pid = main_pid_;
    ctx.rng = &sync_rng_;

    // [T1] happens inline on the main process; there is no [T2] wait.
    trace::Span span({.logger = options_.logger,
                      .kind = trace::RecordKind::BatchPreprocessed,
                      .batch_id = wanted, .pid = main_pid_,
                      .histogram = metrics_.fetch_ns[0],
                      .pmu = &metrics_.pmu});
    const ErrorHandling errors{options_.error_policy, options_.max_retries,
                               options_.max_refill_attempts};
    Result<Batch> fetched = fetcher_.tryFetch(
        wanted, batches_[static_cast<std::size_t>(wanted)], ctx, errors,
        std::move(spare_),
        FetchSeeding{/*per_sample=*/true, epoch_seed_base_});
    spare_ = tensor::Tensor();
    if (!fetched.ok()) {
        // Synchronous re-raise: worker id -1 marks the main process.
        // The epoch is over; startEpoch() restarts.
        span.discard();
        epoch_started_ = false;
        throw LoaderError(fetched.takeError(), wanted, -1);
    }
    Batch result = fetched.take();
    span.finish();
    pinBatch(result);
    trace::Span({.logger = options_.logger,
                 .kind = trace::RecordKind::BatchConsumed,
                 .batch_id = wanted, .pid = main_pid_});

    metrics_.batches_total->add(1);
    ++rcvd_idx_;
    return result;
}

void
DataLoader::recycle(Batch &&batch)
{
    // Keep at most one spare; dropping extras still returns their
    // pages to the buffer pool.
    spare_ = std::move(batch.data);
    batch.labels.clear();
}

std::optional<Batch>
DataLoader::next()
{
    if (!epoch_started_)
        startEpoch();
    if (options_.num_workers == 0)
        return nextSynchronous();
    if (rcvd_idx_ >= numBatches()) {
        shutdownWorkers();
        return std::nullopt;
    }

    const std::int64_t wanted = rcvd_idx_;

    // [T2]: wait for the desired batch. Early out-of-order arrivals
    // already pinned and cached get the 1 µs sentinel duration.
    trace::Span wait_span({.logger = options_.logger,
                           .kind = trace::RecordKind::BatchWait,
                           .batch_id = wanted, .pid = main_pid_,
                           .histogram = metrics_.wait_ns});
    service::BatchMsg msg;
    const auto cached = reorder_cache_.find(wanted);
    const bool early = cached != reorder_cache_.end();
    if (early) {
        msg = std::move(cached->second);
        reorder_cache_.erase(cached);
        metrics_.pin_cache_size->sub(1);
    }
    while (!early) {
        auto received = data_queue_->receive();
        LOTUS_ASSERT(received.has_value(),
                     "data queue closed with batches outstanding");
        metrics_.data_queue_depth->sub(1);
        if (received->batch_id == wanted) {
            msg = std::move(*received);
            break;
        }
        // Early arrival: pin to CPU memory and cache it (paper
        // §III-B). Failed batches are cached too so the error
        // surfaces in batch order, not arrival order.
        pinBatch(received->batch);
        reorder_cache_.emplace(received->batch_id, std::move(*received));
        metrics_.ooo_batches_total->add(1);
        metrics_.pin_cache_size->add(1);
    }
    if (msg.error.has_value()) {
        wait_span.discard();
        raiseWorkerError(std::move(msg));
    }
    Batch result = std::move(msg.batch);
    if (early) {
        wait_span.finishWith(trace::kOutOfOrderSentinel);
    } else {
        const TimeNs waited = wait_span.finish();
        metrics_.wait_ns_total->add(
            static_cast<std::uint64_t>(waited > 0 ? waited : 0));
        pinBatch(result);
    }

    // Consumption span: bookkeeping + dispatch of new work for the
    // producing worker (paper §II-B: one new batch of indices goes to
    // the worker that produced the consumed batch).
    trace::Span consumed_span({.logger = options_.logger,
                               .kind = trace::RecordKind::BatchConsumed,
                               .batch_id = wanted, .pid = main_pid_});
    const auto producer = batch_worker_.find(wanted);
    LOTUS_ASSERT(producer != batch_worker_.end(),
                 "unknown producer for batch %lld",
                 static_cast<long long>(wanted));
    tryPutIndex(producer->second);
    batch_worker_.erase(producer);
    consumed_span.finish();

    metrics_.batches_total->add(1);
    ++rcvd_idx_;
    if (rcvd_idx_ >= numBatches()) {
        // All batches consumed; release the workers.
        shutdownWorkers();
    }
    return result;
}

void
DataLoader::raiseWorkerError(service::BatchMsg msg)
{
    LOTUS_ASSERT(msg.error.has_value());
    // The epoch cannot continue past a failed batch: release the
    // workers (queued batches are dropped with the queues at the next
    // startEpoch) and re-raise with the batch and worker identity.
    shutdownWorkers();
    epoch_started_ = false;
    throw LoaderError(std::move(*msg.error), msg.batch_id, msg.worker_id);
}

std::vector<std::uint32_t>
DataLoader::workerPids() const
{
    std::lock_guard lock(worker_pids_mutex_);
    return worker_pids_;
}

void
DataLoader::shutdownWorkers()
{
    // Drop outstanding prefetches first: a worker blocked in a
    // read-ahead claim wakes with a miss, finishes its sample or batch
    // via synchronous reads, and then sees the shutdown.
    if (read_ahead_ != nullptr)
        read_ahead_->cancel();
    for (auto &queue : index_queues_)
        queue->close();
    if (tenant_ != nullptr) {
        // Outstanding tasks are canceled; destroying the fleet joins
        // its workers.
        fleet_->disconnect(tenant_);
        tenant_.reset();
        fleet_.reset();
    }
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
}

} // namespace lotus::dataflow
